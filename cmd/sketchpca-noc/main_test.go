package main

import "testing"

func TestRunRejectsBadConfig(t *testing.T) {
	cases := [][]string{
		{"-energy", "NaN"},
		{"-energy", "1.5"},
		{"-flows", "0"},
		{"-alpha", "2"},
		{"-rank", "999"},
		{"-listen", "999.999.999.999:1"},
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Fatalf("case %d (%v): want error", i, args)
		}
	}
}
