package main

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"repro/internal/backend"
	"repro/internal/driver"
	"repro/internal/pa8000"
	"repro/internal/specsuite"
)

func TestCompileGenSeed(t *testing.T) {
	a, err := generatePrograms(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generatePrograms(1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 1 drew two different program sets")
	}
	c, err := generatePrograms(2)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if slices.Equal(a[i].sources, c[i].sources) {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 1 and 2 drew the same programs")
	}
	want := 0
	for _, rg := range ladder {
		want += rg.count
	}
	if len(a) != want {
		t.Fatalf("drew %d programs, the ladder asks for %d", len(a), want)
	}
	for _, pr := range a {
		rg := ladder[pr.rung]
		if pr.cost < rg.costLo || pr.cost >= rg.costHi {
			t.Errorf("randprog seed %d: cost %d outside rung %d's band", pr.rseed, pr.cost, pr.rung)
		}
	}
}

func TestFarmStreamSeed(t *testing.T) {
	pool, err := farmPool()
	if err != nil {
		t.Fatal(err)
	}
	if len(pool) < len(specsuite.All()) || len(pool) > len(specsuite.All())*len(farmVariants) {
		t.Fatalf("pool has %d bodies", len(pool))
	}
	distinct := map[string]bool{}
	for _, b := range pool {
		distinct[b.endpoint+string(b.body)] = true
	}
	if len(distinct) != len(pool) {
		t.Fatalf("pool has %d bodies, %d of them distinct", len(pool), len(distinct))
	}
	a := farmStream(1, len(pool), streamLen)
	if !slices.Equal(a, farmStream(1, len(pool), streamLen)) {
		t.Fatal("seed 1 drew two different streams")
	}
	if slices.Equal(a, farmStream(2, len(pool), streamLen)) {
		t.Fatal("seeds 1 and 2 drew the same stream")
	}
	if streamSeed(1, 0) == streamSeed(1, 1) || streamSeed(1, 1) == streamSeed(2, 0) {
		t.Fatal("two passes share a stream seed")
	}
	// Every pool body is requested, so every pass fills the whole pool,
	// and nothing but pool bodies is sent.
	seen := make([]bool, len(pool))
	for _, i := range a {
		seen[i] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Errorf("pool body %d is never requested", i)
		}
	}
	again, err := farmPool()
	if err != nil {
		t.Fatal(err)
	}
	for i := range pool {
		if !bytes.Equal(pool[i].body, again[i].body) {
			t.Fatalf("pool body %d differs between builds", i)
		}
	}
}

func TestSimDigest(t *testing.T) {
	b, err := specsuite.ByName("022.li")
	if err != nil {
		t.Fatal(err)
	}
	link := func() *pa8000.Program {
		p, err := driver.Frontend(b.Sources)
		if err != nil {
			t.Fatal(err)
		}
		mp, err := backend.LinkLayout(p, backend.LayoutSourceOrder)
		if err != nil {
			t.Fatal(err)
		}
		return mp
	}
	var cfg pa8000.Config
	x, y := link(), link()
	if simDigest(x, cfg, b.Train) != simDigest(y, cfg, b.Train) {
		t.Fatal("equal builds and inputs digest differently")
	}
	if simDigest(x, cfg, b.Train) == simDigest(x, cfg, b.Ref) {
		t.Fatal("different inputs digest alike")
	}
	y.Code[len(y.Code)-1].Imm++
	if simDigest(x, cfg, b.Train) == simDigest(y, cfg, b.Train) {
		t.Fatal("different code digests alike")
	}
}

func TestTable1Section(t *testing.T) {
	lines, err := table1Section("x\nTable 1: t\nrow\ntotals\n\nFigure 6: f\n")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"Table 1: t", "row", "totals"}; !slices.Equal(lines, want) {
		t.Fatalf("got %q, want %q", lines, want)
	}
	if _, err := table1Section("Figure 6: f\n"); err == nil {
		t.Fatal("no error for figures without Table 1")
	}
}
