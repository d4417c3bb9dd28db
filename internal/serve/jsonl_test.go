package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

func drained(t *testing.T, r *serve.Runner) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.Drain(ctx); err != nil {
		t.Errorf("drain: %v", err)
	}
}

func TestRunJSONL(t *testing.T) {
	r := serve.NewRunner(serve.RunnerConfig{Workers: 2, QueueDepth: 4})
	defer drained(t, r)

	var in strings.Builder
	in.WriteString("# hand-maintained job list\n\n")
	for i := 0; i < 10; i++ {
		job := serve.Job{ID: fmt.Sprintf("j%d", i), Source: goodSrc, Allocator: "rap", K: 3 + i%4}
		if i == 5 {
			job = serve.Job{ID: "j5", Source: badSyntaxSrc}
		}
		b, _ := json.Marshal(job)
		in.Write(b)
		in.WriteByte('\n')
	}

	var out bytes.Buffer
	if err := serve.RunJSONL(context.Background(), r, strings.NewReader(in.String()), &out); err != nil {
		t.Fatalf("RunJSONL: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 10 {
		t.Fatalf("%d result lines, want 10", len(lines))
	}
	// Results come back on stdout in input order, whatever the pool did;
	// the ID ties each line to its job and the malformed one fails alone.
	for i, line := range lines {
		var res serve.Result
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if want := fmt.Sprintf("j%d", i); res.ID != want {
			t.Fatalf("line %d is %q, want %q — output order broken", i, res.ID, want)
		}
		want := serve.StatusOK
		if i == 5 {
			want = serve.StatusInvalid
		}
		if res.Status != want {
			t.Errorf("job %s: status %q (%s), want %q", res.ID, res.Status, res.Error, want)
		}
	}
}

// TestRunJSONLMalformedLine: a line that is not one job, decoded as
// strictly as an HTTP body, aborts the run naming the line, after the
// earlier lines' results are written.
func TestRunJSONLMalformedLine(t *testing.T) {
	job := fmt.Sprintf(`{"source":%q,"allocator":"rap","k":5`, goodSrc)
	for _, bad := range []string{
		"not json at all",
		job + `,"alocator":"gra"}`, // a misspelt field
		job + `,"remat":true}`,     // a field rap/serve/v1 had
		job + `,"coalesce":true}`,
		job + `} {"source":"x"}`, // two values on one line
	} {
		r := serve.NewRunner(serve.RunnerConfig{Workers: 1})
		in := fmt.Sprintf("{\"id\":\"ok\",\"source\":%q}\n%s\n", goodSrc, bad)
		var out bytes.Buffer
		err := serve.RunJSONL(context.Background(), r, strings.NewReader(in), &out)
		drained(t, r)
		if err == nil {
			t.Errorf("malformed line accepted: %.80s", bad)
			continue
		}
		if !strings.Contains(err.Error(), "line 2") {
			t.Errorf("error %q does not name line 2", err)
		}
		// The good job that preceded the bad line still produced its result.
		if !strings.Contains(out.String(), `"id":"ok"`) {
			t.Errorf("preceding job's result missing from output:\n%s", out.String())
		}
	}
}

// TestRunJSONLLineBound: a line of MaxRequestBytes bytes is a job like
// any other; one byte more aborts the run naming the line and the bound,
// after the earlier lines' results are written.
func TestRunJSONLLineBound(t *testing.T) {
	r := serve.NewRunner(serve.RunnerConfig{Workers: 1})
	defer drained(t, r)

	job := fmt.Sprintf("{\"id\":\"edge\",\"source\":%q}", goodSrc)
	edge := strings.Repeat(" ", serve.MaxRequestBytes-len(job)) + job
	in := edge + "\n" + " " + edge + "\n"
	var out bytes.Buffer
	err := serve.RunJSONL(context.Background(), r, strings.NewReader(in), &out)
	if err == nil {
		t.Fatal("over-long line accepted")
	}
	if want := fmt.Sprintf("line 2: longer than %d bytes", serve.MaxRequestBytes); err.Error() != want {
		t.Errorf("error %q, want %q", err, want)
	}
	if !strings.Contains(out.String(), `"id":"edge","status":"ok"`) {
		t.Errorf("line 1's result missing from output:\n%.300s", out.String())
	}
}

// TestRunJSONLRunawayRecursion checks that a job recursing without bound
// fails alone, with the interpreter's call depth error, instead of taking
// the process (and the job queued behind it) down.
func TestRunJSONLRunawayRecursion(t *testing.T) {
	r := serve.NewRunner(serve.RunnerConfig{Workers: 1})
	defer drained(t, r)
	var in strings.Builder
	for _, job := range []serve.Job{
		{ID: "deep", Source: "int f(int x) { return f(x + 1); } int main() { return f(0); }", Allocator: "rap", K: 5},
		{ID: "next", Source: goodSrc, Allocator: "rap", K: 5},
	} {
		b, _ := json.Marshal(job)
		in.Write(b)
		in.WriteByte('\n')
	}
	var out bytes.Buffer
	if err := serve.RunJSONL(context.Background(), r, strings.NewReader(in.String()), &out); err != nil {
		t.Fatalf("RunJSONL: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d result lines, want 2:\n%s", len(lines), out.String())
	}
	var deep, next serve.Result
	if err := json.Unmarshal([]byte(lines[0]), &deep); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &next); err != nil {
		t.Fatal(err)
	}
	if deep.Status != serve.StatusError || !strings.Contains(deep.Error, "interp: call depth limit exceeded in f") {
		t.Errorf("deep: status %q, error %q; want the call depth error", deep.Status, deep.Error)
	}
	if next.Status != serve.StatusOK {
		t.Errorf("next: status %q (%s), want ok", next.Status, next.Error)
	}
}
