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

import (
	"fmt"
	"strconv"
)

// Attr is one key/value annotation on a span. Values are restricted to
// the types attrString renders: string, bool, int, int64, float64.
type Attr struct {
	// Key names the annotation (snake_case by convention).
	Key string
	// Value is the annotation payload.
	Value any
}

// String builds a string-valued attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer-valued attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, Value: v} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: v} }

// attrString renders an attribute value for the report tree and the
// Chrome trace args.
func attrString(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case bool:
		return strconv.FormatBool(x)
	case int:
		return strconv.Itoa(x)
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', 6, 64)
	default:
		return fmt.Sprintf("%v", x)
	}
}
