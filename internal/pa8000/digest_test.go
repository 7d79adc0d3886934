package pa8000

import (
	"reflect"
	"testing"
)

func digestBase() (*Program, Config, []int64) {
	p := &Program{
		Code: []MInstr{
			{Op: MMovI, Rd: RRet, Imm: 42, Sym: "g"},
			{Op: MAdd, Rd: 3, Rs: 4, Rt: 5},
			{Op: MJmp, Target: 3},
			{Op: MHalt},
		},
		Entry:    1,
		DataLen:  8,
		InitData: []DataInit{{Addr: 2, Vals: []int64{7, 9}}},
	}
	return p, Config{}, []int64{1, 2}
}

// TestRunDigestCoversEverythingRunReads changes one input of a run at
// a time, every Config and MInstr field included by reflection (so a
// field added later is covered without editing this test), and
// requires each change to move the digest. Program fields must be
// listed here as hashed or as diagnostics the engines never read.
func TestRunDigestCoversEverythingRunReads(t *testing.T) {
	p, cfg, in := digestBase()
	base := RunDigest(p, cfg, in)
	if RunDigest(p, cfg.withDefaults(), in) != base {
		t.Error("an explicitly defaulted Config digests differently from the zero Config")
	}

	moved := func(what string, p *Program, cfg Config, in []int64) {
		t.Helper()
		if RunDigest(p, cfg, in) == base {
			t.Errorf("changing %s leaves the digest unchanged", what)
		}
	}
	for i := 0; i < reflect.TypeOf(cfg).NumField(); i++ {
		c := cfg.withDefaults()
		f := reflect.ValueOf(&c).Elem().Field(i)
		f.SetInt(f.Int() + 1)
		moved("Config."+reflect.TypeOf(cfg).Field(i).Name, p, c, in)
	}
	for i := 0; i < reflect.TypeOf(MInstr{}).NumField(); i++ {
		q, _, _ := digestBase()
		f := reflect.ValueOf(&q.Code[1]).Elem().Field(i)
		switch f.Kind() {
		case reflect.Uint8:
			f.SetUint(f.Uint() + 1)
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.String:
			f.SetString(f.String() + "x")
		default:
			t.Fatalf("MInstr.%s: kind %s not handled", reflect.TypeOf(MInstr{}).Field(i).Name, f.Kind())
		}
		moved("MInstr."+reflect.TypeOf(MInstr{}).Field(i).Name, q, cfg, in)
	}

	hashed := map[string]func(q *Program){
		"Code":     func(q *Program) { q.Code = q.Code[:3] },
		"Entry":    func(q *Program) { q.Entry++ },
		"DataLen":  func(q *Program) { q.DataLen++ },
		"InitData": func(q *Program) { q.InitData[0].Vals[1]++ },
	}
	ignored := map[string]func(q *Program){
		"FuncAddr":   func(q *Program) { q.FuncAddr = map[string]int{"main": 1} },
		"GlobalAddr": func(q *Program) { q.GlobalAddr = map[string]int64{"g": 2} },
		"FuncOfAddr": func(q *Program) { q.FuncOfAddr = map[int]string{1: "main"} },
	}
	pt := reflect.TypeOf(Program{})
	for i := 0; i < pt.NumField(); i++ {
		name := pt.Field(i).Name
		q, _, _ := digestBase()
		if change, ok := hashed[name]; ok {
			change(q)
			moved("Program."+name, q, cfg, in)
		} else if change, ok := ignored[name]; ok {
			change(q)
			if RunDigest(q, cfg, in) != base {
				t.Errorf("Program.%s is diagnostics only but moves the digest", name)
			}
		} else {
			t.Errorf("Program.%s is neither hashed nor listed as ignored", name)
		}
	}
	extra := *p
	extra.InitData = append(extra.InitData, DataInit{Addr: 5})
	moved("InitData length", &extra, cfg, in)

	moved("an input value", p, cfg, []int64{1, 3})
	moved("the input count", p, cfg, []int64{1, 2, 0})
	SetReferenceEngine(true)
	defer SetReferenceEngine(false)
	moved("the engine", p, cfg, in)
}
