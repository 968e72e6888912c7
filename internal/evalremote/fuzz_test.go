package evalremote

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"xpscalar/internal/evalengine"
	"xpscalar/internal/evalstore"
)

// FuzzLookupRequest sends arbitrary bytes as a batched lookup body to a
// server holding synthKey(0..2). It must never panic, must answer 200 or
// 400, and a 200 must be a lookup response whose every hit was
// requested, is held by the source, and decodes to exactly the stored
// evaluation. The seed corpus in testdata/fuzz holds a hit-and-miss
// request, a truncated body, a non-hex key and an empty key list.
func FuzzLookupRequest(f *testing.F) {
	src := newMapSource()
	for i := 0; i < 3; i++ {
		src.Store(synthKey(i), testEval(float64(i)+0.5))
	}
	mux := http.NewServeMux()
	Register(mux, src, nil)

	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/cache/lookup", bytes.NewReader(body)))
		switch w.Code {
		case http.StatusBadRequest:
			return
		case http.StatusOK:
		default:
			t.Fatalf("status %d, want 200 or 400", w.Code)
		}
		var resp lookupResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 body is not a lookup response: %v\n%s", err, w.Body.Bytes())
		}
		// The server accepted the body, so the same decoder reads the keys
		// it was asked for.
		var req lookupRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("server accepted a body the decoder rejects: %v", err)
		}
		requested := make(map[string]bool, len(req.Keys))
		for _, k := range req.Keys {
			requested[k] = true
		}
		for hex, rec := range resp.Hits {
			if !requested[hex] {
				t.Fatalf("hit %q was not requested", hex)
			}
			key, ok := evalengine.ParseKey(hex)
			if !ok {
				t.Fatalf("hit %q is not a key", hex)
			}
			want, held := src.Lookup(context.Background(), key)
			if !held {
				t.Fatalf("hit %q is not held by the source", hex)
			}
			got, err := evalstore.DecodeRecord(bytes.NewReader(rec))
			if err != nil {
				t.Fatalf("hit %q does not decode: %v", hex, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("hit %q decoded to %+v, want %+v", hex, got, want)
			}
		}
	})
}
