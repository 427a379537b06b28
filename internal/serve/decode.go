package serve

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/graph"
)

// decodeSchedule decodes a POST /v1/schedule body into req. The edge list is
// most of a large body, so it is parsed in place: findEdges parses the value
// of every graph.edges member with graph.ParseEdgeList, decodeStrict decodes a
// copy of the body in which each of those values is null, and the last list
// parsed becomes req.Graph.Edges. Every other byte is still decoded by
// encoding/json, with its rules for unknown fields, trailing data, key case,
// repeated members and field types, and findEdges picks out exactly the
// members encoding/json would hand to graph.EdgeList, so the result is the
// one decodeStrict gives on the unmodified body.
func decodeSchedule(body []byte, req *Request) error {
	spans, edges, err := findEdges(body)
	if err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	if err := decodeStrict(nullSpans(body, spans), req); err != nil {
		return err
	}
	if len(spans) > 0 {
		req.Graph.Edges = edges
	}
	return nil
}

// Keys are matched as encoding/json matches them to the Request and
// GraphSpec fields: exactly, or else under bytes.EqualFold.
var (
	keyGraph = []byte("graph")
	keyEdges = []byte("edges")
)

// findEdges walks the members of the JSON object at the start of body and,
// where a member's key matches "graph" and its value is an object, that
// object's members. It parses the value of each of those whose key matches
// "edges", and returns the values' spans and the last list parsed. Every
// other value is skipped without being interpreted. A body that does not
// start with an object has no such member.
func findEdges(body []byte) (spans [][2]int, last graph.EdgeList, err error) {
	i := skipWS(body, 0)
	if byteAt(body, i) != '{' {
		return nil, nil, nil
	}
	_, err = walkObject(body, i, func(key []byte, i int) (int, error) {
		if !bytes.EqualFold(key, keyGraph) || byteAt(body, i) != '{' {
			return skipValue(body, i)
		}
		return walkObject(body, i, func(key []byte, i int) (int, error) {
			if !bytes.EqualFold(key, keyEdges) {
				return skipValue(body, i)
			}
			// ParseEdgeList presizes from every bracket it is handed. The
			// first list gets the rest of the body; a repeated one is cut
			// at its own end first, so repeats cannot each allocate for
			// the rest of the body.
			end := len(body)
			if spans != nil {
				var err error
				if end, err = skipValue(body, i); err != nil {
					return 0, err
				}
			}
			edges, n, err := graph.ParseEdgeList(body[i:end])
			if err != nil {
				return 0, err
			}
			spans = append(spans, [2]int{i, i + n})
			last = edges
			return i + n, nil
		})
	})
	return spans, last, err
}

// nullSpans returns body with the bytes of each span replaced by null. It
// copies body only when there is a span to replace.
func nullSpans(body []byte, spans [][2]int) []byte {
	if len(spans) == 0 {
		return body
	}
	size := len(body)
	for _, s := range spans {
		size -= s[1] - s[0] - len("null")
	}
	out := make([]byte, 0, size)
	prev := 0
	for _, s := range spans {
		out = append(append(out, body[prev:s[0]]...), "null"...)
		prev = s[1]
	}
	return append(out, body[prev:]...)
}

// walkObject walks the members of the JSON object that starts at data[i],
// calling member with each unescaped key and the index of its value; member
// returns the index just past the value. walkObject returns the index just
// past the object.
func walkObject(data []byte, i int, member func(key []byte, i int) (int, error)) (int, error) {
	i = skipWS(data, i+1)
	if byteAt(data, i) == '}' {
		return i + 1, nil
	}
	for {
		end, err := skipString(data, i)
		if err != nil {
			return 0, err
		}
		key, err := unquoteKey(data[i:end])
		if err != nil {
			return 0, fmt.Errorf("object key at byte %d: %w", i, err)
		}
		i = skipWS(data, end)
		if byteAt(data, i) != ':' {
			return 0, malformed(data, i, "':' after an object key")
		}
		if i, err = member(key, skipWS(data, i+1)); err != nil {
			return 0, err
		}
		i = skipWS(data, i)
		switch byteAt(data, i) {
		case ',':
			i = skipWS(data, i+1)
		case '}':
			return i + 1, nil
		default:
			return 0, malformed(data, i, "',' or '}' after an object member")
		}
	}
}

// unquoteKey returns the key the JSON string s spells. A key holding a
// backslash is unescaped by encoding/json itself, so an escaped key matches
// a field name exactly when encoding/json would match it.
func unquoteKey(s []byte) ([]byte, error) {
	if bytes.IndexByte(s, '\\') < 0 {
		return s[1 : len(s)-1], nil
	}
	var key string
	if err := json.Unmarshal(s, &key); err != nil {
		return nil, err
	}
	return []byte(key), nil
}

// skipValue returns the index just past the JSON value that starts at
// data[i] without interpreting it: a string ends at its closing quote, an
// array or object where its brackets balance, and anything else at the next
// comma, closing bracket or whitespace. encoding/json checks every value
// skipped here.
func skipValue(data []byte, i int) (int, error) {
	switch byteAt(data, i) {
	case '"':
		return skipString(data, i)
	case '{', '[':
		depth := 0
		for i < len(data) {
			switch data[i] {
			case '"':
				end, err := skipString(data, i)
				if err != nil {
					return 0, err
				}
				i = end
				continue
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1, nil
				}
			}
			i++
		}
		return 0, malformed(data, i, "a closing bracket")
	}
	start := i
scalar:
	for ; i < len(data); i++ {
		switch data[i] {
		case ',', '}', ']', ' ', '\t', '\n', '\r':
			break scalar
		}
	}
	if i == start {
		return 0, malformed(data, i, "a value")
	}
	return i, nil
}

// skipString returns the index just past the JSON string that starts at
// data[i].
func skipString(data []byte, i int) (int, error) {
	if byteAt(data, i) != '"' {
		return 0, malformed(data, i, "a string")
	}
	for i++; i < len(data); i++ {
		switch data[i] {
		case '\\':
			i++
		case '"':
			return i + 1, nil
		}
	}
	return 0, malformed(data, len(data), "a closing quote")
}

// malformed reports that data does not hold what was wanted at byte i.
func malformed(data []byte, i int, want string) error {
	if i >= len(data) {
		return fmt.Errorf("unexpected end of JSON input, want %s", want)
	}
	return fmt.Errorf("invalid character %q at byte %d, want %s", data[i], i, want)
}

// byteAt returns data[i], or 0 past the end.
func byteAt(data []byte, i int) byte {
	if i < len(data) {
		return data[i]
	}
	return 0
}

// skipWS returns the index of the first byte at or after i that is not JSON
// whitespace.
func skipWS(data []byte, i int) int {
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
