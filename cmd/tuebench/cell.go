package main

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"cloudsync/internal/client"
	"cloudsync/internal/core"
	"cloudsync/internal/netem"
	"cloudsync/internal/obs"
	"cloudsync/internal/service"
	"cloudsync/internal/simclock"
)

// cellUsage is the -cell spec.
const cellUsage = "op,service,access,param[,bj]"

var accessMethods = map[string]client.AccessMethod{"pc": client.PC, "web": client.Web, "mobile": client.Mobile}

// parseService matches a service by name, ignoring case, spaces and
// dashes ("google drive", "GoogleDrive", "google-drive").
func parseService(s string) (service.Name, error) {
	fold := func(s string) string { return strings.ToLower(strings.NewReplacer(" ", "", "-", "").Replace(s)) }
	for _, n := range service.All() {
		if fold(n.String()) == fold(s) {
			return n, nil
		}
	}
	return 0, fmt.Errorf("unknown service %q", s)
}

// runCell is `tuebench -cell`: it measures one cell of a simple
// experiment — the same cell body the experiment's grid runs — and
// writes it to w as one explain row. With traceOut set, the cell's
// setup runs under a tracer on its own virtual clock; the span tree is
// written there as Chrome trace_event JSON and printed to w as text.
func runCell(w io.Writer, spec, traceOut string) error {
	parts := strings.Split(spec, ",")
	if len(parts) != 4 && (len(parts) != 5 || parts[4] != "bj") {
		return fmt.Errorf("-cell %q: want %s", spec, cellUsage)
	}
	n, err := parseService(parts[1])
	if err != nil {
		return err
	}
	a, ok := accessMethods[strings.ToLower(parts[2])]
	if !ok {
		return fmt.Errorf("unknown access method %q (pc, web, mobile)", parts[2])
	}
	param, err := strconv.ParseFloat(parts[3], 64)
	if err != nil {
		return fmt.Errorf("-cell parameter: %v", err)
	}
	var opts service.Options
	if len(parts) == 5 {
		opts.Link = netem.Beijing() // Fig. 7's remote vantage point
	}
	var tracer *obs.Tracer
	if traceOut != "" {
		// The tracer reads the clock the setup runs on, so span
		// timestamps are deterministic simulation time.
		clk := simclock.New()
		tracer = obs.NewSimTracer(clk.Now)
		opts.Clock, opts.Tracer = clk, tracer
		core.SetTracer(tracer)
		defer core.SetTracer(nil)
	}
	c, err := core.MeasureCell(service.NewSetup(n, a, opts), parts[0], param)
	if err != nil {
		return err
	}
	fmt.Fprint(w, core.RenderCell(parts[0], c))
	if tracer == nil {
		return nil
	}
	fmt.Fprint(w, tracer.Report())
	return writeTrace(traceOut, tracer)
}
