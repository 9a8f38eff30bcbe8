package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/simulate"
)

// referenceParseScan is the contract ParseScan keeps: encoding/json's
// Decoder with DisallowUnknownFields, and nothing but whitespace after
// the object.
func referenceParseScan(body []byte) (ClassifyRequest, error) {
	var req ClassifyRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	if rest := bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n"); len(rest) != 0 {
		return req, fmt.Errorf("%d bytes after the object", len(rest))
	}
	return req, nil
}

// FuzzParseScan: for any bytes, ParseScan returns the reference's
// request, and fails exactly when the reference fails. The committed
// corpus under testdata/fuzz/FuzzParseScan adds escapes, case-folded
// keys, exponents, null, duplicate keys and trailing bytes.
func FuzzParseScan(f *testing.F) {
	f.Add([]byte(`{"id":"b0/q1~3","readings":[{"mac":"aa:bb:cc:dd:ee:01","rss":-61},{"mac":"aa:bb:cc:dd:ee:02","rss":-72.5}]}`))
	f.Add([]byte(`{"id":"r","readings":[{"mac":"m","rss":-50}],"floor":2,"labeled":true}`))
	f.Add([]byte(`{"id":"x","readings":[{"mac":"a","rss":-50}],"top_k":-1,"absorb":false}`))
	f.Add([]byte(` { "id" : "x" , "readings" : [ ] } `))
	f.Add([]byte(`{"id":"x","readings":[{"mac":"a","rss":01}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantErr := referenceParseScan(body)
		got, err := ParseScan(body)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("ParseScan(%q) error %v, reference %v", body, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("ParseScan(%q) = %+v, reference %+v", body, got, want)
		}
	})
}

// TestParseScanTakesCanonicalBodies: the bodies clients send — a
// json.Marshal'ed ClassifyRequest or dataset.Record, and the benchmark's
// hand-built {"id":...,"readings":...} with or without an absorb's ~seq
// ID suffix — take the hand-written path and decode as encoding/json
// decodes them.
func TestParseScanTakesCanonicalBodies(t *testing.T) {
	corpus, err := simulate.Generate(simulate.Campus3F(20, 5))
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	var bodies [][]byte
	for i, rec := range corpus.Buildings[0].Records {
		readings, err := json.Marshal(rec.Readings)
		if err != nil {
			t.Fatal(err)
		}
		id := rec.ID
		if i%2 == 1 {
			id += "~" + strconv.Itoa(i)
		}
		hand := append(strconv.AppendQuote([]byte(`{"id":`), id), `,"readings":`...)
		bodies = append(bodies, append(append(hand, readings...), '}'))
		marshalled, err := json.Marshal(ClassifyRequest{ID: rec.ID, Readings: rec.Readings, TopK: i%3 - 1, Absorb: i%2 == 0})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, marshalled)
		record, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, record)
	}
	for _, body := range bodies {
		got, ok := parseCanonicalScan(body)
		if !ok {
			t.Fatalf("body took the encoding/json path: %s", body)
		}
		want, err := referenceParseScan(body)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("hand path = %+v, encoding/json %+v", got, want)
		}
	}
}

// TestParseScanBoundsReadingsReserve: the '{' that the parser counts to
// size the readings may sit inside strings; a body full of them gets no
// more than maxReadingsReserve readings reserved, and still decodes.
func TestParseScanBoundsReadingsReserve(t *testing.T) {
	body := []byte(`{"readings":[{"mac":"m","rss":-50}],"id":"` + strings.Repeat("{", 1<<19) + `"}`)
	req, err := ParseScan(body)
	if err != nil {
		t.Fatalf("ParseScan: %v", err)
	}
	if len(req.Readings) != 1 || len(req.ID) != 1<<19 {
		t.Fatalf("decoded %d readings and a %d-byte ID", len(req.Readings), len(req.ID))
	}
	if cap(req.Readings) > maxReadingsReserve {
		t.Errorf("reserved %d readings for one", cap(req.Readings))
	}
}

// TestV2ScanBodyIsExactlyOneScan: a single-scan body is one scan object
// within the size limit. Bytes after the object are a 400, so a second
// scan is never silently dropped, and an over-limit body is a 413 like
// an over-limit batch, on both routes; nothing is absorbed.
func TestV2ScanBodyIsExactlyOneScan(t *testing.T) {
	srv, tests := testServer(t)
	var rec dataset.Record
	for _, pool := range tests {
		rec = pool[0]
		break
	}
	scan, err := json.Marshal(ClassifyRequest{ID: rec.ID, Readings: rec.Readings})
	if err != nil {
		t.Fatal(err)
	}
	before := getStats(t, srv.URL)
	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"garbage after the scan", string(scan) + "garbage", http.StatusBadRequest},
		{"a second scan", string(scan) + `{"id":"y"}`, http.StatusBadRequest},
		{"over the limit", `{"id":"` + strings.Repeat("A", 2<<20) + `"}`, http.StatusRequestEntityTooLarge},
		{"whitespace after the scan", string(scan) + " \r\n\t", http.StatusOK},
	} {
		for _, route := range []string{"/v2/classify", "/v2/absorb"} {
			if tc.want == http.StatusOK && route == "/v2/absorb" {
				continue
			}
			resp, err := http.Post(srv.URL+route, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, route, err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%s on %s: status %d, want %d", tc.name, route, resp.StatusCode, tc.want)
			}
		}
	}
	if after := getStats(t, srv.URL); after.Records != before.Records {
		t.Errorf("records %d -> %d, want unchanged", before.Records, after.Records)
	}
}
