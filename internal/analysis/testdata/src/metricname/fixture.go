// Package fixture seeds intentional metricname violations for the
// golden-file tests; it is under testdata and never built by go build.
package fixture

import "repro/internal/obs"

// ringLength is the sanctioned spelling of the gauge's name.
const ringLength = "fixture.ring.length"

// repairPrefix is a well-formed dynamic-name prefix.
const repairPrefix = "fixture.repair."

// Instrument registers one metric of each kind, mostly badly.
func Instrument(reg *obs.Registry, outcome string) {
	reg.Counter("BadName")                  // uppercase, undotted
	reg.Gauge("single")                     // one segment only
	reg.Histogram("fixture..latency")       // empty middle segment
	reg.Span("Fixture.Phase.Total")         // uppercase segments
	reg.Counter("fixture.repair" + outcome) // prefix misses the trailing dot
	reg.Gauge("fixture.ring.length")        // duplicates the ringLength constant

	reg.Counter("fixture.run.steps")    // clean: dotted lowercase path
	reg.Gauge(ringLength)               // clean: uses the constant
	reg.Counter(repairPrefix + outcome) // clean: dotted prefix constant
	reg.Histogram("sim." + outcome)     // clean: single-segment prefix still dotted
	//starlint:ignore metricname fixture demonstrates a reasoned suppression
	reg.Span("LegacyPhase")
}

// Indirect goes through a plain variable; compile-time-opaque names are
// out of scope.
func Indirect(reg *obs.Registry, name string) {
	reg.Counter(name)
}

// Labeled seeds the labeled-family violations: bad vec names, label
// keys off the lower_snake convention, dynamic keys, and odd kv
// counts. Dynamic values are fine everywhere.
func Labeled(reg *obs.Registry, machine string, key string) {
	reg.CounterVec("VecBad", "n")             // vec name off convention
	reg.CounterVec("fixture.embeds", "N")     // uppercase label key
	reg.GaugeVec("fixture.depth", "ring.len") // dotted label key
	reg.HistogramVec("fixture.lat", key)      // dynamic label key
	v := reg.CounterVec("fixture.embeds2", "n", "mode")
	v.With("n", "6", "mode")               // odd kv count
	v.With("n", "6", key, "x")             // dynamic key in With
	v.With("n", "6", "Mode", "guaranteed") // uppercase key in With

	clean := reg.CounterVec("fixture.repairs", "n", "outcome") // clean: names and keys in shape
	clean.With("n", "6", "outcome", machine)                   // clean: dynamic value, literal keys
	kv := []string{"n", "6"}
	clean.With(kv...) // clean: slice spread is out of scope
}

// Traced names an operation and a child span, one of each badly.
func Traced(reg *obs.Registry) {
	op := reg.StartOp("FixtureOp")                    // op name off convention
	op.Span("fixture.Phase").End()                    // child span name off convention
	op.Span("fixture.phase.step").End()               // clean: dotted lowercase path
	reg.StartOpTrace("fixture.op.continued", 0).End() // clean
	op.End()
}
