package graph

import (
	"bytes"
	"errors"
	"fmt"
	"math"
)

// EdgeList is an undirected edge list in its JSON wire form,
// [[u,v],[u,v],...]. It decodes in one parsing pass without reflection,
// into a slice sized up front, and it is strict where encoding/json is
// lenient with a plain [][2]int: every element must be exactly two integers,
// so [[1]], [[1,2,0]], [null] and [[1,null]] are errors that name the element
// index instead of edges padded with zeros or silently truncated.
//
// A null list decodes to nil, as for any slice. EdgeList has no MarshalJSON:
// it encodes as the [][2]int it is (a nil list as null).
type EdgeList [][2]int

// UnmarshalJSON parses data as a JSON array of two-integer arrays. It accepts
// only input that encoding/json would also decode into a [][2]int with the
// same value, and rejects malformed bytes with an error rather than a panic.
func (l *EdgeList) UnmarshalJSON(data []byte) error {
	edges, end, err := ParseEdgeList(data)
	if err != nil {
		return err
	}
	if skipSpace(data, end) != len(data) {
		return errTrailing
	}
	*l = edges
	return nil
}

var errTrailing = errors.New("graph: edge list: unexpected data after the list")

// ParseEdgeList parses the edge list that starts at data[0], after any JSON
// whitespace, and returns it with the index just past it; whatever follows is
// left to the caller, so a list can be parsed where it sits inside a larger
// document. It accepts what UnmarshalJSON accepts: null, which is a nil list,
// or an array of two-integer arrays. The slice is presized from the brackets
// in all of data (edgeCap), so a caller that parses several lists out of one
// buffer should end data at the list for all but one of them.
func ParseEdgeList(data []byte) (EdgeList, int, error) {
	i := skipSpace(data, 0)
	if bytes.HasPrefix(data[i:], []byte("null")) {
		return nil, i + len("null"), nil
	}
	if byteAt(data, i) != '[' {
		return nil, i, fmt.Errorf("graph: edge list: want a JSON array of [u, v] pairs")
	}
	edges := make([][2]int, 0, edgeCap(data[i:]))
	i = skipSpace(data, i+1)
	if byteAt(data, i) == ']' {
		return edges, i + 1, nil
	}
	for k := 0; ; k++ {
		var e [2]int
		var err error
		if e, i, err = parsePair(data, i); err != nil {
			return nil, i, fmt.Errorf("graph: edge list: element %d: %w", k, err)
		}
		edges = append(edges, e)
		i = skipSpace(data, i)
		if c := byteAt(data, i); c == ']' {
			return edges, i + 1, nil
		} else if c != ',' {
			return nil, i, fmt.Errorf("graph: edge list: after element %d: want ',' or ']'", k)
		}
		i = skipSpace(data, i+1)
	}
}

// edgeCap sizes the slice for the list in data, which starts with '['. Every
// element opens one more bracket, so the count is exact for valid input that
// ends with the list, and the slice never grows while parsing. The shortest
// element, "[0,1],", takes 6 bytes, which caps the count by the byte length:
// brackets inside a JSON string or after the list cannot make the slice
// outgrow data.
func edgeCap(data []byte) int {
	return min(bytes.Count(data, []byte{'['})-1, len(data)/6+1)
}

// byteAt returns data[i], or 0 past the end.
func byteAt(data []byte, i int) byte {
	if i < len(data) {
		return data[i]
	}
	return 0
}

// skipSpace returns the index of the first non-whitespace byte at or after i.
func skipSpace(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// parsePair parses the [u, v] element starting at data[i] and returns the
// index just past it.
func parsePair(data []byte, i int) (e [2]int, next int, err error) {
	if byteAt(data, i) != '[' {
		return e, i, errors.New("want a [u, v] pair of integers")
	}
	i = skipSpace(data, i+1)
	if byteAt(data, i) == ']' {
		return e, i, errors.New("is empty, want exactly 2 integers")
	}
	if e[0], i, err = parseInt(data, i); err != nil {
		return e, i, fmt.Errorf("value 0: %w", err)
	}
	i = skipSpace(data, i)
	switch byteAt(data, i) {
	case ',':
	case ']':
		return e, i, errors.New("has 1 value, want exactly 2 integers")
	default:
		return e, i, errors.New("value 0: want ',' after it")
	}
	i = skipSpace(data, i+1)
	if e[1], i, err = parseInt(data, i); err != nil {
		return e, i, fmt.Errorf("value 1: %w", err)
	}
	i = skipSpace(data, i)
	switch byteAt(data, i) {
	case ']':
		return e, i + 1, nil
	case ',':
		return e, i, errors.New("has more than 2 values, want exactly 2 integers")
	default:
		return e, i, errors.New("value 1: want ']' after it")
	}
}

// parseInt parses the JSON number starting at data[i], which must be an
// integer in the range of int: an optional minus sign and digits without
// leading zeros, not followed by a fraction or an exponent. It returns the
// index just past the number.
func parseInt(data []byte, i int) (int, int, error) {
	neg := byteAt(data, i) == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(data); i++ {
		d := data[i] - '0'
		if d > 9 {
			break
		}
		u = 10*u + uint64(d) // wraps only past 19 digits, rejected below
	}
	switch c := byteAt(data, i); {
	case i == start:
		return 0, i, errors.New("want an integer")
	case data[start] == '0' && i-start > 1:
		return 0, i, errors.New("integer with a leading zero")
	case c == '.' || c == 'e' || c == 'E':
		return 0, i, errors.New("want an integer, not a fraction or exponent")
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	if i-start > 19 || u > limit {
		return 0, i, errors.New("integer out of range")
	}
	if neg {
		return int(-u), i, nil
	}
	return int(u), i, nil
}
