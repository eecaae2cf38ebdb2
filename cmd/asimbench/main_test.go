package main

import (
	"testing"

	asim2 "repro"
	"repro/internal/machines"
)

// TestSnapshotDigest: distinct state must digest differently, equal
// state identically — for both the name-keyed snapshotDigest and the
// architectural hash the engine digests with.
func TestSnapshotDigest(t *testing.T) {
	spec, err := asim2.ParseString("counter", machines.Counter())
	if err != nil {
		t.Fatal(err)
	}
	a, err := asim2.NewMachine(spec, asim2.Compiled, asim2.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := asim2.NewMachine(spec, asim2.Compiled, asim2.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if snapshotDigest(a) != snapshotDigest(b) {
		t.Error("fresh machines digest differently")
	}
	if a.ArchHash() != b.ArchHash() {
		t.Error("fresh machines arch-digest differently")
	}
	if err := a.Run(3); err != nil {
		t.Fatal(err)
	}
	if snapshotDigest(a) == snapshotDigest(b) {
		t.Error("diverged machines digest identically")
	}
	if a.ArchHash() == b.ArchHash() {
		t.Error("diverged machines arch-digest identically")
	}
}
