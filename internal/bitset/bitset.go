// Package bitset implements dense word-packed bit sets over [0, n). It is
// the storage layer of the domination kernel (package domset): candidate
// membership, the alive mask and the undominated set are Sets, so a
// membership flip is one word operation and the sorted undominated list is
// one pass over the words.
//
// Bits at positions >= n are kept zero, so AppendBits never reports one.
package bitset

import (
	"fmt"
	"math/bits"
)

const wordBits = 64

// Set is a fixed-length bit set over positions [0, n). The zero value is
// an empty zero-length set; use New for anything useful.
type Set struct {
	words []uint64
	n     int
}

// New returns a set of length n with all bits clear. It panics if n < 0.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative length")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Words exposes the backing words for kernel loops. Bits at positions >= n
// must be kept zero by callers that write through this slice.
func (s *Set) Words() []uint64 { return s.words }

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: position %d out of range [0, %d)", i, s.n))
	}
}

// Set sets bit i.
func (s *Set) Set(i int) {
	s.check(i)
	s.words[i>>6] |= 1 << uint(i&63)
}

// Clear clears bit i.
func (s *Set) Clear(i int) {
	s.check(i)
	s.words[i>>6] &^= 1 << uint(i&63)
}

// Toggle flips bit i and reports whether it is set afterwards — the
// single-word membership flip of the incremental domination session.
func (s *Set) Toggle(i int) bool {
	s.check(i)
	s.words[i>>6] ^= 1 << uint(i&63)
	return s.words[i>>6]&(1<<uint(i&63)) != 0
}

// Test reports whether bit i is set.
func (s *Set) Test(i int) bool {
	s.check(i)
	return s.words[i>>6]&(1<<uint(i&63)) != 0
}

// Reset clears every bit. The compiler lowers the loop to memclr, so a reset
// costs O(n/64) with no allocation — the reuse primitive of the kernel.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Fill sets every bit in [0, n), keeping tail bits zero.
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.maskTail()
}

// maskTail zeroes the bits of the last word at positions >= n.
func (s *Set) maskTail() {
	if rem := s.n & 63; rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << uint(rem)) - 1
	}
}

// AppendBits appends the positions of the set bits to dst in ascending order
// and returns the extended slice. With a pre-grown dst this allocates
// nothing.
func (s *Set) AppendBits(dst []int) []int {
	for wi, w := range s.words {
		for w != 0 {
			dst = append(dst, wi<<6+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}
