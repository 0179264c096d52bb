package core

import (
	"errors"
	"math"
	"testing"

	"streampca/internal/sketch"
)

func TestParamsValidate(t *testing.T) {
	good := Params{Family: sketch.FamilyFD, NumFlows: 4, WindowLen: 8, SketchLen: 2, Epsilon: 0.3}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Params){
		"unknown family": func(p *Params) { p.Family = 7 },
		"no flows":       func(p *Params) { p.NumFlows = 0 },
		"zero window":    func(p *Params) { p.WindowLen = 0 },
		"zero sketch":    func(p *Params) { p.SketchLen = 0 },
		"epsilon NaN":    func(p *Params) { p.Epsilon = math.NaN() },
		"epsilon 1":      func(p *Params) { p.Epsilon = 1 },
		"epsilon < 0":    func(p *Params) { p.Epsilon = -0.1 },
	} {
		p := good
		mutate(&p)
		if err := p.Validate(); !errors.Is(err, ErrConfig) {
			t.Errorf("%s: Validate = %v, want ErrConfig", name, err)
		}
	}
}
