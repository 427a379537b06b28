package graph

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
)

// Fingerprint returns the canonical SHA-256 hash of the graph structure: the
// node count, edge count, and the sorted undirected edge list. Because the
// adjacency lists are kept sorted, two graphs over the same node set with the
// same edge set fingerprint identically no matter the order edges were
// inserted or listed, and distinct structures differ (up to SHA-256
// collisions). Node IDs are part of the structure: isomorphic graphs with
// different labelings fingerprint differently by design — the serving layer
// caches by concrete instance, not by isomorphism class.
func (g *Graph) Fingerprint() [sha256.Size]byte {
	h := sha256.New()
	w := bufio.NewWriterSize(h, hashBufSize)
	writeGraph(w, g)
	w.Flush()
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// hashBufSize is the batch a bufio.Writer hands to SHA-256, a multiple of its
// 64-byte block size: the hash sees a few large writes instead of one 8-byte
// Write per word. Writes into the buffer cannot fail, since hashes never
// return an error.
const hashBufSize = 4096

// writeWords writes each v as 8 little-endian bytes, flushing first when
// they do not all fit, so the appends never allocate.
func writeWords(w *bufio.Writer, vs ...uint64) {
	if w.Available() < 8*len(vs) {
		w.Flush()
	}
	b := w.AvailableBuffer()
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	w.Write(b)
}

// writeGraph writes the canonical structure words of g: N, M, then every edge
// {u, v} with u < v as u, v, in adjacency order. The edge words are appended
// straight into w's free buffer, which is handed back and flushed only when
// the next edge does not fit.
func writeGraph(w *bufio.Writer, g *Graph) {
	writeWords(w, uint64(g.N()), uint64(g.M()))
	b := w.AvailableBuffer()
	for u, nbrs := range g.adj {
		for _, v := range nbrs {
			if int32(u) >= v {
				continue
			}
			if cap(b)-len(b) < 16 {
				w.Write(b)
				w.Flush()
				b = w.AvailableBuffer()
			}
			b = binary.LittleEndian.AppendUint64(b, uint64(u))
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
	}
	w.Write(b)
}

// Hasher accumulates a canonical request key: a graph structure plus labeled
// scalar and slice parameters (budgets, algorithm name, tolerance, seed, …).
// Every field is framed with its label and a length prefix, so adjacent
// fields cannot collide by concatenation ("ab"+"c" vs "a"+"bc") and a nil
// slice is distinct from an empty one is distinct from an absent one. The
// serving layer (internal/serve) keys its result cache and request
// coalescing on Hasher sums.
type Hasher struct {
	h hash.Hash
	w *bufio.Writer
}

// NewHasher returns an empty Hasher.
func NewHasher() *Hasher {
	h := sha256.New()
	return &Hasher{h: h, w: bufio.NewWriterSize(h, hashBufSize)}
}

func (s *Hasher) frame(label string, kind byte, payloadLen int) {
	writeWords(s.w, uint64(len(label)))
	s.w.WriteString(label)
	s.w.WriteByte(kind)
	writeWords(s.w, uint64(payloadLen))
}

// Graph mixes in the canonical structure hash of g under the given label.
func (s *Hasher) Graph(label string, g *Graph) *Hasher {
	s.frame(label, 'g', g.N())
	writeGraph(s.w, g)
	return s
}

// String mixes in a labeled string.
func (s *Hasher) String(label, v string) *Hasher {
	s.frame(label, 's', len(v))
	s.w.WriteString(v)
	return s
}

// Int mixes in a labeled int.
func (s *Hasher) Int(label string, v int) *Hasher {
	s.frame(label, 'i', 1)
	writeWords(s.w, uint64(v))
	return s
}

// Uint64 mixes in a labeled uint64 (seeds).
func (s *Hasher) Uint64(label string, v uint64) *Hasher {
	s.frame(label, 'u', 1)
	writeWords(s.w, v)
	return s
}

// Float mixes in a labeled float64 by its IEEE-754 bits, so every distinct
// value (including -0 vs +0 and NaN payloads) is a distinct key component.
func (s *Hasher) Float(label string, v float64) *Hasher {
	s.frame(label, 'f', 1)
	writeWords(s.w, math.Float64bits(v))
	return s
}

// Ints mixes in a labeled int slice in order, length-prefixed.
func (s *Hasher) Ints(label string, vs []int) *Hasher {
	s.frame(label, 'I', len(vs))
	for _, v := range vs {
		writeWords(s.w, uint64(v))
	}
	return s
}

// Sum returns the accumulated key as a hex string. The Hasher must not be
// used after Sum.
func (s *Hasher) Sum() string {
	s.w.Flush()
	var out [sha256.Size]byte
	return hex.EncodeToString(s.h.Sum(out[:0]))
}
