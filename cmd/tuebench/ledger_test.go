package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"cloudsync/internal/core"
)

// renderLedgerDump produces the exact bytes `tuebench -quick
// -ledger-out` writes.
func renderLedgerDump(t *testing.T) []byte {
	t.Helper()
	core.ResetContentSeeds()
	var b bytes.Buffer
	if err := writeLedgerDump(&b, core.ExplainAll(true)); err != nil {
		t.Fatalf("writeLedgerDump: %v", err)
	}
	return b.Bytes()
}

// TestLedgerDumpGolden pins the quick ledger dump byte-for-byte against
// testdata/ledger-quick.golden.json; cmd/tuediff shows a failure cause
// by cause. Intentional attribution changes regenerate it with
//
//	go test ./cmd/tuebench -run TestLedgerDumpGolden -update
func TestLedgerDumpGolden(t *testing.T) {
	got := renderLedgerDump(t)
	golden := filepath.Join("testdata", "ledger-quick.golden.json")

	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden dump (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("ledger dump differs from %s\n(inspect with: go run ./cmd/tuediff %s <(go run ./cmd/tuebench -quick -ledger-out /dev/stdout);\n regenerate intentionally with: go test ./cmd/tuebench -run TestLedgerDumpGolden -update)",
			golden, golden)
	}
}

// TestLedgerDumpDeterministic asserts two in-process regenerations are
// byte-identical and structurally sound: every cell's causes sum to its
// traffic.
func TestLedgerDumpDeterministic(t *testing.T) {
	a, b := renderLedgerDump(t), renderLedgerDump(t)
	if !bytes.Equal(a, b) {
		t.Fatal("two ledger dumps from the same process differ")
	}
	var dump ledgerDump
	if err := json.Unmarshal(a, &dump); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if len(dump.Cells) == 0 {
		t.Fatal("dump has no cells")
	}
	for key, cell := range dump.Cells {
		if got := cell.Causes.Total(); got != cell.Traffic {
			t.Errorf("%s: causes sum to %d, traffic %d", key, got, cell.Traffic)
		}
	}
}
