package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
)

// RunJSONL is the offline batch mode: one Job per input line, one Result
// per output line, in input order. Jobs stream into the runner as queue
// slots free up (offline callers get blocking backpressure instead of
// 429), and blank lines and #-comments are skipped, so a results file
// can be produced from a hand-maintained job list. The first malformed
// line, or line longer than MaxRequestBytes, aborts with its line
// number after the results of the lines before it are written; job-level
// failures ride in their result line like everywhere else.
func RunJSONL(ctx context.Context, r *Runner, in io.Reader, out io.Writer) error {
	sc := bufio.NewScanner(in)
	// The buffer holds a whole line and its newline.
	sc.Buffer(make([]byte, 0, 64*1024), MaxRequestBytes+1)
	enc := json.NewEncoder(out)
	// A sliding window of in-flight tasks preserves output order while
	// keeping up to QueueDepth jobs in the pool.
	var window []*Task
	flush := func(all bool) error {
		for len(window) > 0 {
			if !all && len(window) < r.QueueDepth() {
				return nil
			}
			if err := enc.Encode(window[0].Wait()); err != nil {
				return err
			}
			window = window[1:]
		}
		return nil
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var job Job
		if err := json.Unmarshal([]byte(line), &job); err != nil {
			flush(true)
			return fmt.Errorf("line %d: bad job: %w", lineNo, err)
		}
		for {
			t, err := r.Submit(ctx, job)
			if err == nil {
				window = append(window, t)
				break
			}
			if errors.Is(err, ErrQueueFull) {
				// Blocking backpressure: retire the oldest task, then
				// retry the submit.
				if len(window) == 0 {
					return fmt.Errorf("line %d: queue full with empty window (queue depth %d shared with another producer?)", lineNo, r.QueueDepth())
				}
				if err := enc.Encode(window[0].Wait()); err != nil {
					return err
				}
				window = window[1:]
				continue
			}
			flush(true)
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		if err := flush(false); err != nil {
			return err
		}
	}
	if err := flush(true); err != nil {
		return err
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return fmt.Errorf("line %d: longer than %d bytes", lineNo+1, MaxRequestBytes)
		}
		return err
	}
	return nil
}
