package core_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestParseAllocator(t *testing.T) {
	tests := []struct {
		in   string
		want core.Allocator
		err  error
	}{
		{"none", core.AllocNone, nil},
		{"", core.AllocNone, nil},
		{"gra", core.AllocGRA, nil},
		{"rap", core.AllocRAP, nil},
		{"naive", core.AllocNaive, nil},
		{"irc", core.AllocIRC, nil},
		{" RAP ", core.AllocRAP, nil}, // flag values arrive untrimmed
		{"chaitin", "", core.ErrBadAllocator},
		{"rap,gra", "", core.ErrBadAllocator},
		{"0", "", core.ErrBadAllocator},
	}
	for _, tt := range tests {
		got, err := core.ParseAllocator(tt.in)
		if tt.err != nil {
			if !errors.Is(err, tt.err) {
				t.Errorf("ParseAllocator(%q) error = %v, want %v", tt.in, err, tt.err)
			}
			continue
		}
		if err != nil || got != tt.want {
			t.Errorf("ParseAllocator(%q) = %q, %v, want %q", tt.in, got, err, tt.want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		cfg  core.Config
		err  error
	}{
		{"zero value", core.Config{}, nil},
		{"none ignores k", core.Config{Allocator: core.AllocNone, K: 99999}, nil},
		{"gra ok", core.Config{Allocator: core.AllocGRA, K: 5}, nil},
		{"rap min", core.Config{Allocator: core.AllocRAP, K: 3}, nil},
		{"naive max", core.Config{Allocator: core.AllocNaive, K: core.MaxK}, nil},
		{"k too small", core.Config{Allocator: core.AllocRAP, K: 2}, core.ErrBadK},
		{"k zero", core.Config{Allocator: core.AllocGRA, K: 0}, core.ErrBadK},
		{"k negative", core.Config{Allocator: core.AllocGRA, K: -5}, core.ErrBadK},
		{"k too large", core.Config{Allocator: core.AllocGRA, K: core.MaxK + 1}, core.ErrBadK},
		{"unknown allocator", core.Config{Allocator: "linear-scan", K: 5}, core.ErrBadAllocator},
	}
	for _, tt := range tests {
		err := tt.cfg.Validate()
		if tt.err == nil && err != nil {
			t.Errorf("%s: Validate() = %v, want nil", tt.name, err)
		}
		if tt.err != nil && !errors.Is(err, tt.err) {
			t.Errorf("%s: Validate() = %v, want %v", tt.name, err, tt.err)
		}
	}
}

// TestCompileRejectsBadConfig: the constructor path (not just flag
// parsing) refuses to run an invalid pipeline.
func TestCompileRejectsBadConfig(t *testing.T) {
	if _, err := core.Compile(sample, core.Config{Allocator: "wild", K: 5}); !errors.Is(err, core.ErrBadAllocator) {
		t.Errorf("bad allocator: err = %v", err)
	}
	if _, err := core.Compile(sample, core.Config{Allocator: core.AllocRAP, K: 1}); !errors.Is(err, core.ErrBadK) {
		t.Errorf("bad k: err = %v", err)
	}
}

// TestCompileBadSourceTyped: every front-end rejection — including the
// degenerate programs a service must answer 400 for, and the inputs
// that would otherwise overflow the stack or exhaust memory — carries
// the ErrBadSource sentinel and never panics.
func TestCompileBadSourceTyped(t *testing.T) {
	const deep = 100_000
	bad := []struct{ name, src string }{
		{"empty", ""},
		{"whitespace", "  \n\t\n"},
		{"no main", "int f() { return 1; }"},
		{"syntax error", "int main( {"},
		{"zero-statement main is fine but undefined name is not", "int main() { return nope; }"},
		{"deep parentheses", "int main() { return " + strings.Repeat("(", deep) + "1" + strings.Repeat(")", deep) + "; }"},
		{"long + chain", "int main() { int x = 0" + strings.Repeat("+1", deep) + "; return x; }"},
		{"huge global", "int g[400000000]; int main() { return g[0]; }"},
	}
	for _, tt := range bad {
		_, err := core.Compile(tt.src, core.Config{Allocator: core.AllocRAP, K: 5})
		if err == nil {
			t.Errorf("%s: expected error", tt.name)
			continue
		}
		if !errors.Is(err, core.ErrBadSource) {
			t.Errorf("%s: error %v does not wrap ErrBadSource", tt.name, err)
		}
	}
	// A config rejection is not a source problem: the sentinels stay
	// distinct so a service can blame the right part of the request.
	if _, err := core.Compile("int main() { return 0; }", core.Config{Allocator: core.AllocRAP, K: 1}); errors.Is(err, core.ErrBadSource) || !errors.Is(err, core.ErrBadK) {
		t.Errorf("bad k misclassified: %v", err)
	}
}

func TestParseKsErrors(t *testing.T) {
	tests := []struct {
		in string
		ok bool
	}{
		{"3, 5,7", true},
		{"64", true},
		{"9,7,5,3", true}, // order is the caller's business
		{"", false},
		{"a", false},
		{"3,,5", false},
		{"0", false},
		{"-2", false},
		{"3,5,3", false}, // duplicate
		{"65", false},    // above MaxK
		{"3,1000000", false},
	}
	for _, tt := range tests {
		ks, err := core.ParseKs(tt.in)
		if tt.ok && err != nil {
			t.Errorf("ParseKs(%q) = %v, want success", tt.in, err)
		}
		if !tt.ok {
			if err == nil {
				t.Errorf("ParseKs(%q) = %v, want error", tt.in, ks)
			} else if !errors.Is(err, core.ErrBadK) {
				t.Errorf("ParseKs(%q) error %v is not ErrBadK", tt.in, err)
			}
		}
	}
}
