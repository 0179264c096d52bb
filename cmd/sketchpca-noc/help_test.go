package main

import (
	"testing"

	"streampca/internal/cliflags/helptest"
)

func TestHelpGolden(t *testing.T) { helptest.Golden(t, run) }
