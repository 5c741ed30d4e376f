package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"cloudsync/internal/obs"
)

// TestSyncloadMetricsDocumented runs one short in-process mode and
// requires the syncload_* instruments it registered to equal the ones
// the tables of docs/OBSERVABILITY.md name, in both directions — the
// load generator's share of the catalogue the root package's
// TestObservabilityCatalogue checks for syncd_* and syncnet_*.
func TestSyncloadMetricsDocumented(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := config{accounts: 2, rate: 200, duration: 50 * time.Millisecond, batch: 2, check: true, quiet: true}
	entry, _, err := runMode(cfg, "bundle", []int64{512}, reg)
	if err != nil {
		t.Fatal(err)
	}
	if entry.Extra["ops"] == 0 || entry.Extra["failed-ops"] != 0 {
		t.Fatalf("mode ran %v ops, %v failed", entry.Extra["ops"], entry.Extra["failed-ops"])
	}
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	registered := make(map[string]bool)
	for _, m := range regexp.MustCompile(`(?m)^# TYPE (syncload_\S+) `).FindAllStringSubmatch(prom.String(), -1) {
		registered[m[1]] = true
	}

	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := make(map[string]bool)
	name := regexp.MustCompile("`(syncload_[a-z0-9_]+)`")
	for _, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, "|") {
			for _, m := range name.FindAllStringSubmatch(line, -1) {
				documented[m[1]] = true
			}
		}
	}
	for n := range registered {
		if !documented[n] {
			t.Errorf("metric %s is not in the docs/OBSERVABILITY.md catalogue", n)
		}
	}
	for n := range documented {
		if !registered[n] {
			t.Errorf("docs/OBSERVABILITY.md catalogues %s, which syncload never registered", n)
		}
	}
	if len(registered) == 0 {
		t.Fatal("no syncload_* metric registered; harness broken?")
	}
}
