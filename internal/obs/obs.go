// Package obs is the live observability layer for the sync path:
// hierarchical tracing spans, a lock-cheap metrics registry, and the
// HTTP surface (/metrics, /healthz, net/http/pprof) that exposes both.
// It has no dependencies beyond the standard library.
//
// The package is built around one contract: a nil *Tracer, *Span,
// *Counter, *Gauge, or *Histogram is a valid no-op value. Every method
// checks its receiver and returns immediately when it is nil, so
// instrumented code never branches on "is observability enabled" —
// it simply calls through, and an uninstrumented run (the default for
// every experiment and test) pays only a nil check. The tracer-off
// cost is measured by the *ObsOff/*ObsOn benchmark pairs
// (`go test -bench 'ObsO(ff|n)$'`).
//
// Tracers are clock-aware: NewTracer stamps spans with wall-clock
// offsets, while NewSimTracer reads a virtual clock (simclock.Clock's
// Now), so simulation spans carry deterministic virtual timestamps and
// do not perturb experiment reproducibility. A finished trace exports
// as a dump (WriteDump: JSONL, one span per line, which tracemerge
// reads), as a Chrome trace_event file loadable in chrome://tracing or
// Perfetto (WriteMergedChromeTrace over Merge of one or more dumps),
// and as a human-readable summary tree (synccli -report).
//
// Registries render in the Prometheus text exposition format and are
// served together with liveness and pprof endpoints by Handler /
// ListenAndServe (syncd -obs-addr).
package obs

import "strconv"

// Attr is one key/value annotation on a span: a key and one typed
// value (string, int, uint or bool). It holds no interface, so
// building one never allocates, and a call handing attrs to a nil
// *Tracer or *Span allocates nothing.
type Attr struct {
	// Key names the annotation (snake_case by convention).
	Key  string
	kind attrKind
	str  string
	num  uint64 // an int's, uint's or bool's bits
}

type attrKind uint8

const (
	kindString attrKind = iota
	kindInt
	kindUint
	kindBool
)

// String builds a string-valued attribute.
func String(k, v string) Attr { return Attr{Key: k, kind: kindString, str: v} }

// Int builds a signed-integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, kind: kindInt, num: uint64(v)} }

// Uint builds an unsigned-integer attribute (versions, IDs).
func Uint(k string, v uint64) Attr { return Attr{Key: k, kind: kindUint, num: v} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr {
	a := Attr{Key: k, kind: kindBool}
	if v {
		a.num = 1
	}
	return a
}

// attrString renders an attribute value for the report tree and the
// Chrome trace args.
func attrString(a Attr) string {
	switch a.kind {
	case kindInt:
		return strconv.FormatInt(int64(a.num), 10)
	case kindUint:
		return strconv.FormatUint(a.num, 10)
	case kindBool:
		return strconv.FormatBool(a.num != 0)
	default:
		return a.str
	}
}
