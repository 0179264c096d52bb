package traffic

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"streampca/internal/mat"
)

// ErrCSV indicates a malformed trace file.
var ErrCSV = errors.New("traffic: malformed trace CSV")

// ReadCSV parses a trace in the trafficgen format:
//
//	interval,<flow name>,...,<flow name>[,label]
//	0,12345,...,67890[,0|1]
//
// Volumes must be non-negative whole numbers of bytes. The label column is
// optional; when present it populates the trace's ground-truth labels. Flow
// names of the form "A→B" over a consistent router set also recover
// RouterNames; otherwise RouterNames stays empty and injection helpers that
// need the topology are unavailable.
func ReadCSV(r io.Reader) (*Trace, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)

	if !scanner.Scan() {
		if err := scanner.Err(); err != nil {
			return nil, fmt.Errorf("read header: %w", err)
		}
		return nil, fmt.Errorf("%w: empty input", ErrCSV)
	}
	header := strings.Split(strings.TrimSpace(scanner.Text()), ",")
	if len(header) < 2 || header[0] != "interval" {
		return nil, fmt.Errorf("%w: header must start with \"interval\"", ErrCSV)
	}
	hasLabel := header[len(header)-1] == "label"
	flowNames := header[1:]
	if hasLabel {
		flowNames = header[1 : len(header)-1]
	}
	if len(flowNames) == 0 {
		return nil, fmt.Errorf("%w: no flow columns", ErrCSV)
	}
	m := len(flowNames)

	var rows [][]float64
	var labels []bool
	lineNo := 1
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		want := 1 + m
		if hasLabel {
			want++
		}
		if len(fields) != want {
			return nil, fmt.Errorf("%w: line %d has %d fields, want %d", ErrCSV, lineNo, len(fields), want)
		}
		row := make([]float64, m)
		for j := 0; j < m; j++ {
			v, err := strconv.ParseFloat(fields[1+j], 64)
			if err != nil {
				return nil, fmt.Errorf("%w: line %d column %d: %v", ErrCSV, lineNo, j, err)
			}
			// Volumes are whole bytes; NaN fails the Trunc test too.
			if v < 0 || v != math.Trunc(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%w: line %d column %d: invalid volume %v", ErrCSV, lineNo, j, v)
			}
			row[j] = v
		}
		rows = append(rows, row)
		if hasLabel {
			switch fields[len(fields)-1] {
			case "0":
				labels = append(labels, false)
			case "1":
				labels = append(labels, true)
			default:
				return nil, fmt.Errorf("%w: line %d: label %q", ErrCSV, lineNo, fields[len(fields)-1])
			}
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("read trace: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("%w: no data rows", ErrCSV)
	}

	vol, err := mat.NewMatrixFromRows(rows)
	if err != nil {
		return nil, err
	}

	// Baseline means: per-column averages of the loaded data, so injection
	// helpers keep working on loaded traces.
	baseMeans := make([]float64, m)
	for j := 0; j < m; j++ {
		var s float64
		for i := 0; i < vol.Rows(); i++ {
			s += vol.At(i, j)
		}
		baseMeans[j] = s / float64(vol.Rows())
	}

	tr := &Trace{
		Volumes:         vol,
		FlowNames:       append([]string(nil), flowNames...),
		RouterNames:     routersFromFlowNames(flowNames),
		IntervalsPerDay: IntervalsPerDay5Min,
		StartInterval:   1,
		baseMeans:       baseMeans,
		labelOverride:   labels,
	}
	return tr, nil
}

// WriteCSV writes tr in the format ReadCSV parses: the interval index, each
// flow's volume rounded to an integer, and the ground-truth label.
func WriteCSV(out io.Writer, tr *Trace) error {
	w := bufio.NewWriter(out)
	w.WriteString("interval")
	for _, name := range tr.FlowNames {
		w.WriteByte(',')
		w.WriteString(name)
	}
	w.WriteString(",label\n")

	labels := tr.Labels()
	for i := 0; i < tr.NumIntervals(); i++ {
		w.WriteString(strconv.Itoa(i))
		for _, v := range tr.Volumes.RowView(i) {
			w.WriteByte(',')
			w.WriteString(strconv.FormatFloat(v, 'f', 0, 64))
		}
		if labels[i] {
			w.WriteString(",1\n")
		} else {
			w.WriteString(",0\n")
		}
	}
	return w.Flush()
}

// routersFromFlowNames recovers the router list when the flow names are a
// complete "A→B" OD grid; returns nil otherwise.
func routersFromFlowNames(names []string) []string {
	var routers []string
	seen := make(map[string]int)
	for _, n := range names {
		parts := strings.Split(n, "→")
		if len(parts) != 2 {
			return nil
		}
		for _, p := range parts {
			if _, ok := seen[p]; !ok {
				seen[p] = len(routers)
				routers = append(routers, p)
			}
		}
	}
	k := len(routers)
	if k*k != len(names) {
		return nil
	}
	// Verify the grid ordering matches origin-major indexing.
	for idx, n := range names {
		parts := strings.Split(n, "→")
		if seen[parts[0]]*k+seen[parts[1]] != idx {
			return nil
		}
	}
	return routers
}
