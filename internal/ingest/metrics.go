package ingest

import "streampca/internal/obs"

// Metrics is the ingest instrumentation surface. All names are under
// streampca_ingest_ and documented in README.md "Live ingestion".
type Metrics struct {
	// datagrams/records/bytes count successfully decoded traffic.
	Datagrams *obs.Counter
	Records   *obs.Counter
	Bytes     *obs.Counter
	// DecodeErrors counts datagrams rejected by the v5 decoder.
	DecodeErrors *obs.Counter
	// SeqGapRecords counts records lost upstream, inferred from
	// FlowSequence gaps (per engine).
	SeqGapRecords *obs.Counter
	// LateRecords counts records that arrived after their epoch was sealed
	// (beyond the lateness slack); FutureDrops counts records whose
	// timestamp jumped implausibly far ahead of the watermark.
	LateRecords *obs.Counter
	FutureDrops *obs.Counter
	// Unroutable counts records whose addresses matched no prefix in the
	// routing table.
	Unroutable *obs.Counter
	// FaultDrops counts datagrams suppressed by the fault injector (chaos
	// testing only; zero in production).
	FaultDrops *obs.Counter
	// EpochsSealed counts sealed intervals; PartialEpochs the subset sealed
	// early by shutdown drain.
	EpochsSealed  *obs.Counter
	PartialEpochs *obs.Counter
	// SinkErrors counts sealed rows the sink rejected.
	SinkErrors *obs.Counter
	// RolloverSeconds times an interval rollover: from the seal to sink
	// completion (wait in the delivery FIFO + the sink call).
	RolloverSeconds *obs.Histogram
}

// NewMetrics registers the ingest metric family on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Datagrams: reg.Counter("streampca_ingest_datagrams_total",
			"NetFlow v5 datagrams decoded."),
		Records: reg.Counter("streampca_ingest_records_total",
			"NetFlow v5 flow records decoded."),
		Bytes: reg.Counter("streampca_ingest_bytes_total",
			"Raw datagram bytes decoded."),
		DecodeErrors: reg.Counter("streampca_ingest_decode_errors_total",
			"Datagrams rejected by the NetFlow v5 decoder."),
		SeqGapRecords: reg.Counter("streampca_ingest_seq_gap_records_total",
			"Records lost upstream of the collector (FlowSequence gaps)."),
		LateRecords: reg.Counter("streampca_ingest_late_records_total",
			"Records arriving after their interval was sealed (beyond the lateness slack)."),
		FutureDrops: reg.Counter("streampca_ingest_future_drop_records_total",
			"Records dropped for timestamps implausibly far ahead of the watermark."),
		Unroutable: reg.Counter("streampca_ingest_unroutable_records_total",
			"Records whose addresses matched no routing-table prefix."),
		FaultDrops: reg.Counter("streampca_ingest_fault_dropped_datagrams_total",
			"Datagrams suppressed by the fault injector (chaos tests)."),
		EpochsSealed: reg.Counter("streampca_ingest_epochs_sealed_total",
			"Intervals sealed and delivered to the sink."),
		PartialEpochs: reg.Counter("streampca_ingest_partial_epochs_total",
			"Intervals sealed early by shutdown drain."),
		SinkErrors: reg.Counter("streampca_ingest_sink_errors_total",
			"Sealed interval rows the sink rejected."),
		RolloverSeconds: reg.Histogram("streampca_ingest_rollover_seconds",
			"Interval rollover latency: seal to sink completion.", nil),
	}
}
