// Command trafficgen generates a synthetic Abilene OD-flow trace as CSV:
// one row per interval, one column per OD flow, with optional injected
// anomalies recorded in a trailing "label" column.
//
// Usage:
//
//	trafficgen -intervals 8064 -seed 42 \
//	    -spike 3:5000:5010:4.0 \
//	    -coordinated 1,10,33:6000:6012:0.5 \
//	    -flash 5:7000:7060:2.0 > trace.csv
//
// Injection specs use interval indices of the generated trace:
//
//	-spike       flow:start:end:magnitude
//	-coordinated f1,f2,...:start:end:magnitude
//	-flash       destRouter:start:end:peakMagnitude
//
// -netflow switches the output to NetFlow v5 datagrams for the ingest path
// (sketchpca-monitor -ingest-listen): a file of concatenated datagrams
// ("-" for stdout), or a live UDP replay with "udp:host:port", optionally
// paced to -rate records per second:
//
//	trafficgen -intervals 288 -netflow udp:127.0.0.1:2055 -rate 50000
package main

import (
	"bufio"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"streampca/internal/ingest"
	"streampca/internal/traffic"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "trafficgen:", err)
		os.Exit(1)
	}
}

type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ";") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("trafficgen", flag.ContinueOnError)
	var (
		intervals  = fs.Int("intervals", 4*traffic.IntervalsPerDay5Min, "number of intervals to generate")
		perDay     = fs.Int("per-day", traffic.IntervalsPerDay5Min, "intervals per day (288 = 5-minute, 1440 = 1-minute)")
		seed       = fs.Int64("seed", 1, "generator seed")
		totalVol   = fs.Float64("volume", 1e8, "network-wide mean bytes per interval")
		spikes     multiFlag
		coordinate multiFlag
		flashes    multiFlag

		netflow  = fs.String("netflow", "", `emit NetFlow v5 datagrams instead of CSV: a file path, "-" for stdout, or udp:host:port for live replay`)
		rate     = fs.Float64("rate", 0, "pace the -netflow replay to this many records per second (0 = unpaced)")
		nfIntvl  = fs.Int("netflow-interval", 300, "seconds per trace interval in -netflow timestamps")
		nfPerFlw = fs.Int("netflow-records-per-flow", 1, "split each flow's per-interval volume across this many records")
	)
	fs.Var(&spikes, "spike", "high-profile injection flow:start:end:magnitude (repeatable)")
	fs.Var(&coordinate, "coordinated", "coordinated injection f1,f2,...:start:end:magnitude (repeatable)")
	fs.Var(&flashes, "flash", "flash-crowd injection destRouter:start:end:peak (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	tr, err := traffic.Generate(traffic.GeneratorConfig{
		NumIntervals:    *intervals,
		IntervalsPerDay: *perDay,
		Seed:            *seed,
		TotalVolume:     *totalVol,
	})
	if err != nil {
		return err
	}

	for _, spec := range spikes {
		flow, start, end, mag, err := parseInjection(spec)
		if err != nil {
			return fmt.Errorf("spike %q: %w", spec, err)
		}
		if len(flow) != 1 {
			return fmt.Errorf("spike %q: exactly one flow", spec)
		}
		if err := tr.InjectSpike(flow[0], start, end, mag); err != nil {
			return fmt.Errorf("spike %q: %w", spec, err)
		}
	}
	for _, spec := range coordinate {
		flows, start, end, mag, err := parseInjection(spec)
		if err != nil {
			return fmt.Errorf("coordinated %q: %w", spec, err)
		}
		if err := tr.InjectCoordinated(flows, start, end, mag); err != nil {
			return fmt.Errorf("coordinated %q: %w", spec, err)
		}
	}
	for _, spec := range flashes {
		dest, start, end, mag, err := parseInjection(spec)
		if err != nil {
			return fmt.Errorf("flash %q: %w", spec, err)
		}
		if len(dest) != 1 {
			return fmt.Errorf("flash %q: exactly one destination router", spec)
		}
		if err := tr.InjectFlashCrowd(dest[0], start, end, mag); err != nil {
			return fmt.Errorf("flash %q: %w", spec, err)
		}
	}

	if *netflow != "" {
		return writeNetFlow(*netflow, out, tr, netFlowOptions{
			rate:           *rate,
			intervalSec:    *nfIntvl,
			recordsPerFlow: *nfPerFlw,
			seed:           *seed,
		})
	}
	return traffic.WriteCSV(out, tr)
}

type netFlowOptions struct {
	rate           float64
	intervalSec    int
	recordsPerFlow int
	seed           int64
}

// writeNetFlow serializes the trace as NetFlow v5 datagrams to dest: a file
// path ("-" meaning stdout), or "udp:host:port" for a live replay. A
// positive rate paces emission to that many flow records per second, so a
// replay against a collector approximates a real exporter instead of a
// single burst.
func writeNetFlow(dest string, stdout io.Writer, tr *traffic.Trace, o netFlowOptions) error {
	var (
		emit  func([]byte) error
		flush = func() error { return nil }
	)
	switch {
	case strings.HasPrefix(dest, "udp:"):
		conn, err := net.Dial("udp", strings.TrimPrefix(dest, "udp:"))
		if err != nil {
			return err
		}
		defer conn.Close()
		emit = func(d []byte) error {
			_, err := conn.Write(d)
			return err
		}
	case dest == "-":
		w := bufio.NewWriter(stdout)
		emit = func(d []byte) error {
			_, err := w.Write(d)
			return err
		}
		flush = w.Flush
	default:
		f, err := os.Create(dest)
		if err != nil {
			return err
		}
		defer f.Close()
		w := bufio.NewWriter(f)
		emit = func(d []byte) error {
			_, err := w.Write(d)
			return err
		}
		flush = w.Flush
	}
	if o.rate > 0 {
		inner := emit
		start := time.Now()
		var sent int64
		emit = func(d []byte) error {
			sent += int64(binary.BigEndian.Uint16(d[2:4])) // header record count
			due := start.Add(time.Duration(float64(sent) / o.rate * float64(time.Second)))
			time.Sleep(time.Until(due))
			return inner(d)
		}
	}
	if err := ingest.ExportTrace(tr, ingest.ExportOptions{
		IntervalSec:    o.intervalSec,
		RecordsPerFlow: o.recordsPerFlow,
		Seed:           o.seed,
	}, emit); err != nil {
		return err
	}
	return flush()
}

// parseInjection parses "ids:start:end:magnitude" with ids a comma list.
func parseInjection(spec string) (ids []int, start, end int, mag float64, err error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 4 {
		return nil, 0, 0, 0, fmt.Errorf("want ids:start:end:magnitude")
	}
	for _, s := range strings.Split(parts[0], ",") {
		id, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, 0, 0, 0, fmt.Errorf("id %q: %w", s, err)
		}
		ids = append(ids, id)
	}
	if start, err = strconv.Atoi(parts[1]); err != nil {
		return nil, 0, 0, 0, fmt.Errorf("start %q: %w", parts[1], err)
	}
	if end, err = strconv.Atoi(parts[2]); err != nil {
		return nil, 0, 0, 0, fmt.Errorf("end %q: %w", parts[2], err)
	}
	if mag, err = strconv.ParseFloat(parts[3], 64); err != nil {
		return nil, 0, 0, 0, fmt.Errorf("magnitude %q: %w", parts[3], err)
	}
	return ids, start, end, mag, nil
}
