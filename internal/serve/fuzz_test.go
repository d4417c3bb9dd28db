package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzDecodeJob feeds arbitrary bytes to decodeStrict, the decoder HTTP
// bodies and JSONL lines share. Decoding, Validate and CacheKey must
// never panic, and a job that validates must survive json.Marshal and a
// second strict decode with the same CacheKey: the cache key is the
// job's content address, so re-encoding a job must not change which
// result it names. The seeds are TestHTTPConformance's request bodies
// (the hostile sources shortened) and CI's JSONL lines.
func FuzzDecodeJob(f *testing.F) {
	const job = `{"source":"int main() { print(42); return 7; }","allocator":"rap","k":5}`
	for _, seed := range []string{
		job,
		`{"source":`,
		`{"jobs":[`,
		`{"source":"int main() { return 0; }","frobnicate":true}`,
		`{"source":"int main() { print(42); return 7; }","allocator":"rap","k":5,"remat":true}`,
		`{"source":"int main() { print(42); return 7; }","allocator":"rap","k":5,"coalesce":true}`,
		`{"jobs":[],"frobnicate":true}`,
		`{"jobs":[]}`,
		`{"jobs":[{},{}]}`,
		`{"source":"xxxxxxxxxxxxxxxx"}`,
		`{"id":"deep-parens","source":"int main() { return ((((1)))); }","allocator":"rap","k":5}`,
		`{"id":"long-chain","source":"int main() { int x = 0+1+1+1; return x; }","allocator":"rap","k":5}`,
		`{"id":"huge-global","source":"int g[400000000]; int main() { return g[0]; }","allocator":"rap","k":5}`,
		`{"jobs":[` + job + `,` + job + `]}`,
		`{"id":"a","source":"int main() { print(1); return 0; }","allocator":"rap","k":5}`,
		`{"id":"b","source":"broken"}`,
		`{"source":"int main() { return 0; }","mode":"compare","ks":[3,9],"funcs":["main"],"run":false,"verify":true,"merge_stmts":true,"rap_no_motion":true,"rap_no_peephole":true,"timeout_ms":10,"max_cycles":100}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var j Job
		if decodeStrict(bytes.NewReader(data), &j) != nil {
			return
		}
		key := j.CacheKey()
		if j.Validate() != nil {
			return
		}
		out, err := json.Marshal(&j)
		if err != nil {
			t.Fatalf("valid job %+v does not encode: %v", j, err)
		}
		var back Job
		if err := decodeStrict(bytes.NewReader(out), &back); err != nil {
			t.Fatalf("re-encoded job %s does not decode: %v", out, err)
		}
		if got := back.CacheKey(); got != key {
			t.Fatalf("cache key changed in a round trip through %s: %s, was %s", out, got, key)
		}
	})
}
