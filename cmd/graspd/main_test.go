package main

import (
	"math"
	"strings"
	"testing"
)

// TestCacheBudget: -cache-mb converts to bytes exactly, and a count whose
// bytes overflow int64 is refused at startup instead of wrapping into the
// default (2^44 MiB wraps to 0) or "unlimited" (2^43 wraps negative).
func TestCacheBudget(t *testing.T) {
	for _, c := range []struct {
		mb, want int64
		refused  bool
	}{
		{mb: 0, want: 0},
		{mb: 4096, want: 4 << 30},
		{mb: -1, want: -1 << 20},
		{mb: math.MaxInt64 >> 20, want: math.MaxInt64 >> 20 << 20},
		{mb: math.MinInt64 >> 20, want: math.MinInt64},
		{mb: 1 << 43, refused: true},
		{mb: 17592186044416, refused: true}, // 2^44
		{mb: math.MaxInt64, refused: true},
		{mb: math.MinInt64>>20 - 1, refused: true},
	} {
		got, err := cacheBudget(c.mb)
		if c.refused {
			if err == nil || !strings.Contains(err.Error(), "overflows") {
				t.Errorf("cacheBudget(%d) = (%d, %v), want an overflow error", c.mb, got, err)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("cacheBudget(%d) = (%d, %v), want %d", c.mb, got, err, c.want)
		}
	}
}
