package main

import (
	"reflect"
	"testing"
)

// TestParseCorun is the -corun/-corun-ratio table: whitespace around a
// field is tolerated; a weight with trailing garbage ("2x", "3 4") must be
// rejected whole, not read up to its first non-digit.
func TestParseCorun(t *testing.T) {
	for _, tc := range []struct {
		corun, ratio string
		apps         []string
		want         []int
		bad          bool
	}{
		{corun: "BFS", ratio: "", apps: []string{"BFS"}},
		{corun: "BFS", ratio: "2,1", apps: []string{"BFS"}, want: []int{2, 1}},
		{corun: " BFS , TC ", ratio: " 2 , 1 ,3", apps: []string{"BFS", "TC"}, want: []int{2, 1, 3}},
		{corun: "BFS", ratio: "2x,1", bad: true},
		{corun: "BFS", ratio: "3 4,1", bad: true},
		{corun: "BFS", ratio: "0,1", bad: true},
		{corun: "BFS", ratio: "-1,1", bad: true},
		{corun: "BFS", ratio: ",1", bad: true},
		{corun: "BFS", ratio: "2", bad: true},
		{corun: "BFS", ratio: "2,1,1", bad: true},
		{corun: "BFS,,TC", ratio: "", bad: true},
	} {
		apps, ratio, err := parseCorun(&options{corun: tc.corun, corunRatio: tc.ratio})
		if tc.bad {
			if err == nil {
				t.Errorf("-corun %q -corun-ratio %q: accepted as %v %v", tc.corun, tc.ratio, apps, ratio)
			}
			continue
		}
		if err != nil {
			t.Errorf("-corun %q -corun-ratio %q: %v", tc.corun, tc.ratio, err)
			continue
		}
		if !reflect.DeepEqual(apps, tc.apps) || !reflect.DeepEqual(ratio, tc.want) {
			t.Errorf("-corun %q -corun-ratio %q = %v %v, want %v %v",
				tc.corun, tc.ratio, apps, ratio, tc.apps, tc.want)
		}
	}
}
