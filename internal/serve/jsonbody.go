package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"slices"
	"strconv"
)

// decodeJSONData reads a JSON /v1/segment body and returns its "data" array.
// The canonical body — {"data":[n,…]}, any JSON whitespace, that exact key —
// is parsed in one pass, each number checked against JSON's grammar and
// converted by strconv.ParseFloat(s, 32), as encoding/json converts a float32
// field. Any other body, or a number out of range, goes to json.Decoder over
// the same bytes, so its answer and its error are encoding/json's. Like
// json.Decoder, it reads up to the value's closing brace (the body's first,
// in the canonical form) and never stops on a value count, so a body over the
// cap is still the cap's error. The buffer starts at 512 bytes and grows only
// as bytes arrive, so a declared Content-Length holds no memory by itself.
func decodeJSONData(body io.Reader, n int) ([]float32, error) {
	buf := make([]byte, 0, 512)
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, len(buf))
		}
		got, err := body.Read(buf[len(buf):cap(buf)])
		closed := bytes.IndexByte(buf[len(buf):len(buf)+got], '}') >= 0
		buf = buf[:len(buf)+got]
		if closed || err != nil {
			break
		}
	}
	if data, ok := parseCanonicalJSON(buf, n); ok {
		return data, nil
	}
	var req struct {
		Data []float32 `json:"data"`
	}
	err := json.NewDecoder(io.MultiReader(bytes.NewReader(buf), body)).Decode(&req)
	return req.Data, err
}

// parseCanonicalJSON parses b as {"data":[n,…]}, JSON whitespace between
// tokens, into a slice with room for n; ok is false for anything else.
func parseCanonicalJSON(b []byte, n int) (data []float32, ok bool) {
	i := 0
	for _, tok := range [...]string{"{", `"data"`, ":", "["} {
		if i = expect(b, i, tok); i < 0 {
			return nil, false
		}
	}
	data = make([]float32, 0, n)
	if j := expect(b, i, "]"); j >= 0 {
		return data, expect(b, j, "}") >= 0
	}
	for {
		i = skipSpace(b, i)
		end := numberEnd(b, i)
		if end < 0 {
			return nil, false
		}
		f, err := strconv.ParseFloat(string(b[i:end]), 32)
		if err != nil {
			return nil, false
		}
		data = append(data, float32(f))
		switch i = skipSpace(b, end); {
		case i < len(b) && b[i] == ',':
			i++
		case i < len(b) && b[i] == ']':
			return data, expect(b, i+1, "}") >= 0
		default:
			return nil, false
		}
	}
}

// expect returns the index past tok if tok follows b[i:]'s whitespace, or -1.
func expect(b []byte, i int, tok string) int {
	i = skipSpace(b, i)
	if len(b)-i < len(tok) || string(b[i:i+len(tok)]) != tok {
		return -1
	}
	return i + len(tok)
}

// skipSpace returns the index of the first non-whitespace byte at or after i.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// numberEnd returns the end of the JSON number -?(0|[1-9][0-9]*)(.[0-9]+)?
// ([eE][+-]?[0-9]+)? that starts at b[i], or -1 if none does.
func numberEnd(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digitsEnd(b, i+1)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		if i = digitsEnd(b, i+1); b[i-1] == '.' {
			return -1
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j := digitsEnd(b, i); j > i {
			return j
		}
		return -1
	}
	return i
}

// digitsEnd returns the index of the first non-digit byte at or after i.
func digitsEnd(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
