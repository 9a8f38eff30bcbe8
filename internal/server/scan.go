// Single-scan request decoding. ParseScan reads the canonical body that
// json.Marshal writes for a ClassifyRequest or a dataset.Record by hand,
// and hands every other body to encoding/json over the same bytes, so
// what the surface accepts and refuses is exactly encoding/json's.

package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/dataset"
)

// errTrailingData rejects a body that carries more than one scan object.
var errTrailingData = errors.New("unexpected data after the scan object")

// ParseScan decodes a single-scan body: one JSON object with the fields
// of ClassifyRequest, an unknown field being an error, followed by
// nothing but whitespace. It decodes exactly as encoding/json's Decoder
// with DisallowUnknownFields would. The canonical form — the lowercase
// keys, each at most once, strings without escapes or non-ASCII bytes,
// numbers without exponents, no null — is read by hand; any other body
// is decoded by encoding/json. The request's strings are copies, so
// body may be reused once ParseScan returns.
func ParseScan(body []byte) (ClassifyRequest, error) {
	if req, ok := parseCanonicalScan(body); ok {
		return req, nil
	}
	var req ClassifyRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return ClassifyRequest{}, err
	}
	for _, c := range body[dec.InputOffset():] {
		if !isSpace(c) {
			return ClassifyRequest{}, errTrailingData
		}
	}
	return req, nil
}

// decodeScan reads a single-scan request body of at most maxBodyBytes
// into buf and parses it with ParseScan; a scan without readings is
// refused. On failure it returns the status to answer with: 413 past
// the limit, 400 otherwise.
func decodeScan(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer) (ClassifyRequest, int, error) {
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		return ClassifyRequest{}, decodeStatus(err), fmt.Errorf("decode scan: %w", err)
	}
	req, err := ParseScan(buf.Bytes())
	if err != nil {
		return ClassifyRequest{}, http.StatusBadRequest, fmt.Errorf("decode scan: %w", err)
	}
	if len(req.Readings) == 0 {
		return ClassifyRequest{}, http.StatusBadRequest, errors.New("scan has no readings")
	}
	return req, http.StatusOK, nil
}

// maxPooledBody is the largest body buffer put back in bodyPool, so one
// large scan does not pin its buffer for the life of the process.
const maxPooledBody = 64 << 10

// bodyPool recycles single-scan body buffers across requests.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// scanParser is a cursor over one body in canonical form. Each method
// reports false at the first byte outside that form, and ParseScan then
// falls back to encoding/json.
type scanParser struct {
	b []byte
	i int
}

// parseCanonicalScan is ParseScan's hand-written path.
func parseCanonicalScan(body []byte) (ClassifyRequest, bool) {
	p := scanParser{b: body}
	var req ClassifyRequest
	if !p.object(func(key []byte) (ok bool) {
		switch string(key) {
		case "id":
			var s []byte
			s, ok = p.str()
			req.ID = string(s)
		case "readings":
			req.Readings, ok = p.readings()
		case "top_k":
			req.TopK, ok = p.int()
		case "absorb":
			req.Absorb, ok = p.bool()
		case "floor":
			req.Floor, ok = p.int()
		case "labeled":
			req.Labeled, ok = p.bool()
		}
		return ok
	}) {
		return req, false
	}
	p.space()
	return req, p.i == len(p.b)
}

// object reads one object, calling field for each key with the cursor
// on its value. A repeated key is refused: encoding/json lets the last
// one win, which the hand path does not reproduce.
func (p *scanParser) object(field func(key []byte) bool) bool {
	p.space()
	if !p.lit('{') {
		return false
	}
	p.space()
	if p.lit('}') {
		return true
	}
	var keys [6][]byte
	n := 0
	for {
		p.space()
		key, ok := p.str()
		if !ok || n == len(keys) {
			return false
		}
		for _, k := range keys[:n] {
			if bytes.Equal(k, key) {
				return false
			}
		}
		keys[n] = key
		n++
		p.space()
		if !p.lit(':') {
			return false
		}
		p.space()
		if !field(key) {
			return false
		}
		p.space()
		if p.lit('}') {
			return true
		}
		if !p.lit(',') {
			return false
		}
	}
}

// maxReadingsReserve caps the readings capacity the parser reserves up
// front, so a body whose strings are full of '{' cannot make it reserve
// many times the body's size. A longer scan grows by append.
const maxReadingsReserve = 256

// readings reads the readings array. It reserves one reading per '{'
// left in the body, at least one per reading, up to maxReadingsReserve.
func (p *scanParser) readings() ([]dataset.Reading, bool) {
	if !p.lit('[') {
		return nil, false
	}
	out := make([]dataset.Reading, 0, min(bytes.Count(p.b[p.i:], []byte{'{'}), maxReadingsReserve))
	p.space()
	if p.lit(']') {
		return out, true
	}
	for {
		p.space()
		var rd dataset.Reading
		if !p.object(func(key []byte) (ok bool) {
			switch string(key) {
			case "mac":
				var s []byte
				s, ok = p.str()
				rd.MAC = string(s)
			case "rss":
				rd.RSS, ok = p.float()
			}
			return ok
		}) {
			return nil, false
		}
		out = append(out, rd)
		p.space()
		if p.lit(']') {
			return out, true
		}
		if !p.lit(',') {
			return nil, false
		}
	}
}

// str reads a string of printable ASCII without escapes and returns its
// contents, which alias the body.
func (p *scanParser) str() ([]byte, bool) {
	if !p.lit('"') {
		return nil, false
	}
	start := p.i
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// number reads -?(0|[1-9][0-9]*), then .[0-9]+ when frac is set.
func (p *scanParser) number(frac bool) ([]byte, bool) {
	start := p.i
	p.lit('-')
	switch {
	case p.lit('0'):
	case p.i < len(p.b) && p.b[p.i] >= '1' && p.b[p.i] <= '9':
		p.digits()
	default:
		return nil, false
	}
	if frac && p.lit('.') {
		if p.digits() == 0 {
			return nil, false
		}
	}
	return p.b[start:p.i], true
}

// digits skips a run of decimal digits and returns its length.
func (p *scanParser) digits() int {
	start := p.i
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i - start
}

// float reads a number as encoding/json does for a float64 field.
func (p *scanParser) float() (float64, bool) {
	num, ok := p.number(true)
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(num), 64)
	return v, err == nil
}

// int reads an integer as encoding/json does for an int field.
func (p *scanParser) int() (int, bool) {
	num, ok := p.number(false)
	if !ok {
		return 0, false
	}
	v, err := strconv.Atoi(string(num))
	return v, err == nil
}

// bool reads true or false.
func (p *scanParser) bool() (bool, bool) {
	switch {
	case bytes.HasPrefix(p.b[p.i:], []byte("true")):
		p.i += 4
		return true, true
	case bytes.HasPrefix(p.b[p.i:], []byte("false")):
		p.i += 5
		return false, true
	}
	return false, false
}

// lit consumes c if it is the next byte.
func (p *scanParser) lit(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// space skips JSON whitespace.
func (p *scanParser) space() {
	for p.i < len(p.b) && isSpace(p.b[p.i]) {
		p.i++
	}
}

// isSpace reports whether c is JSON whitespace.
func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
