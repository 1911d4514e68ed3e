package tracectx

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// pointerFields lists the fields of typ, through nested structs and
// arrays, whose values hold pointers the garbage collector must mark.
func pointerFields(typ reflect.Type, name string) []string {
	switch typ.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String,
		reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
		return []string{name}
	case reflect.Array:
		if typ.Len() > 0 {
			return pointerFields(typ.Elem(), name+"[]")
		}
	case reflect.Struct:
		var out []string
		for i := range typ.NumField() {
			f := typ.Field(i)
			out = append(out, pointerFields(f.Type, name+"."+f.Name)...)
		}
		return out
	}
	return nil
}

// interfaceFields lists the fields of typ, through nested structs, arrays
// and slices, that hold interface values.
func interfaceFields(typ reflect.Type, name string) []string {
	switch typ.Kind() {
	case reflect.Interface:
		return []string{name}
	case reflect.Array, reflect.Slice:
		return interfaceFields(typ.Elem(), name+"[]")
	case reflect.Struct:
		var out []string
		for i := range typ.NumField() {
			f := typ.Field(i)
			out = append(out, interfaceFields(f.Type, name+"."+f.Name)...)
		}
		return out
	}
	return nil
}

// A span is at most 80 bytes with its trace as its only pointer, and
// attrs and arena bytes hold no pointers at all, so a stored trace gives
// the garbage collector one word per span to mark. No attr value is
// boxed: a trace, its spans and its attrs hold no interface values.
func TestSpanLayout(t *testing.T) {
	if n := unsafe.Sizeof(Span{}); n > 80 {
		t.Errorf("Span is %d bytes, want <= 80", n)
	}
	if n := unsafe.Sizeof(attr{}); n > 24 {
		t.Errorf("attr is %d bytes, want <= 24", n)
	}
	if got := pointerFields(reflect.TypeOf(Span{}), "Span"); len(got) != 1 || got[0] != "Span.t" {
		t.Errorf("Span pointer fields %v, want only Span.t", got)
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(attr{}), reflect.TypeOf(Trace{}.arena).Elem()} {
		if got := pointerFields(typ, typ.Name()); len(got) != 0 {
			t.Errorf("%s holds pointers: %v", typ, got)
		}
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(Trace{}), reflect.TypeOf(Span{}), reflect.TypeOf(attr{})} {
		if got := interfaceFields(typ, typ.Name()); len(got) != 0 {
			t.Errorf("%s holds interface values: %v", typ, got)
		}
	}
}

// checkIdentity checks every exported span against its path: its id is
// DeriveSpanID of the path, and its parent's is that of the path's
// prefix. The oracle reads spans through the same index as Render, so
// this is what catches a span or parent looked up in the wrong chunk.
func checkIdentity(t *testing.T, tr *Trace) {
	t.Helper()
	for _, d := range tr.Export().Spans {
		if want := DeriveSpanID(tr.ID(), d.Path).String(); d.ID != want {
			t.Fatalf("span %q: id %s, want %s", d.Path, d.ID, want)
		}
		cut := strings.LastIndexByte(d.Path, '/')
		if d.Parent == "" {
			continue
		}
		if cut < 0 {
			t.Fatalf("span %q has a parent but no parent path", d.Path)
		}
		if want := DeriveSpanID(tr.ID(), d.Path[:cut]).String(); d.Parent != want {
			t.Fatalf("span %q: parent %s, want %s", d.Path, d.Parent, want)
		}
	}
}

// The integer fields of the compact layout hold past any narrow width,
// and every edge renders as the reflection oracle does.
func TestLayoutEdgesMatchOracle(t *testing.T) {
	m := Meta{Key: "evaluate|k", Status: 200, Reason: "cache-miss", Flight: "f"}

	t.Run("300 attrs", func(t *testing.T) {
		tr := New(DeriveID("attrs"), "request", "serve")
		sp := tr.Root().Child("wide")
		for i := range 300 {
			k := "k" + strconv.Itoa(i)
			switch i % 4 {
			case 0:
				sp.Str(k, strings.Repeat("v", i))
			case 1:
				sp.Int(k, -i)
			case 2:
				sp.Float(k, float64(i)/7)
			case 3:
				sp.Bool(k, i%8 == 3)
			}
		}
		for i := 0; i < 300; i += 3 {
			sp.Int("k"+strconv.Itoa(i), i)
		}
		endAll(tr)
		if n := len(tr.Export().Spans[1].Attrs); n != 300 {
			t.Fatalf("%d attrs exported, want 300", n)
		}
		checkRender(t, tr, m)
	})

	t.Run("65600 spans", func(t *testing.T) {
		if testing.Short() {
			t.Skip("renders 65,600 spans through the oracle")
		}
		const n = 65600
		tr := New(DeriveID("many"), "request", "serve")
		// Span i hangs under span (i-1)/2, so parents sit in every chunk.
		spans := []*Span{tr.Root()}
		for i := 1; i < n; i++ {
			spans = append(spans, spans[(i-1)/2].ChildIndex("s", "", i).Int("i", i))
		}
		if tr.Len() != n {
			t.Fatalf("Len = %d, want %d", tr.Len(), n)
		}
		for i, sp := range spans {
			if tr.spanAt(uint32(i)) != sp {
				t.Fatalf("span %d is not where its index says", i)
			}
		}
		endAll(tr)
		checkIdentity(t, tr)
		checkRender(t, tr, m)
	})

	t.Run("path at the hash buffer limit", func(t *testing.T) {
		tr := New(DeriveID("long"), "request", "serve")
		// The id and "request/" take 24 of derivBuf's bytes.
		for _, n := range []int{derivBuf - 25, derivBuf - 24, derivBuf - 23, 2 * derivBuf} {
			tr.Root().Child(strings.Repeat("n", n)).Child("leaf").End()
		}
		endAll(tr)
		checkIdentity(t, tr)
		checkRender(t, tr, m)
	})

	t.Run("strings across arena growth", func(t *testing.T) {
		tr := New(DeriveID("arena"), "request", "serve")
		sp := tr.Root()
		// Fill the inline arena to one byte short, then write a key and a
		// value that each outgrow what a doubling would add.
		sp.Str("k", strings.Repeat("a", firstArena-len("requestserve")-len("k")-1))
		sp.Str(strings.Repeat("K", minArena+1), strings.Repeat("V", 3*minArena))
		sp.Child(strings.Repeat("c", 5*minArena)).Str(strings.Repeat("k", 40), "é<>&\x00").End()
		endAll(tr)
		checkIdentity(t, tr)
		checkRender(t, tr, m)
	})

	t.Run("escaped keys and values", func(t *testing.T) {
		tr := New(DeriveID("escape"), "POST /v1/<&>", "sérve")
		root := tr.Root().Str("é\t", "<a href=\"x\">&</a>").Str("<k>", "\x00\x1f\x7f\xff")
		root.ChildCat("peer é", CatCluster).Str("&", "ü").Float("\n", math.Inf(-1)).End()
		root.Child("ctl\x01").Bool("\\", true).End()
		endAll(tr)
		checkRender(t, tr, m)
	})

	t.Run("overwrites", func(t *testing.T) {
		tr := New(DeriveID("overwrite"), "request", "serve")
		sp := tr.Root().Child("s")
		sp.Str("a", "x").Int("a", 3).Float("b", 1.5)
		sp.Bool("c", true).Str("c", "last")
		sp.Float("sim_t0", 1).SetVirtual(2, 3)
		sp.Str("sim_t1", "over")
		endAll(tr)
		got := tr.Export().Spans[1].Attrs
		want := map[string]any{"a": 3, "b": 1.5, "c": "last", "sim_t0": 2.0, "sim_t1": "over"}
		if len(got) != len(want) {
			t.Fatalf("attrs %v, want %v", got, want)
		}
		for k, v := range want {
			if got[k] != v {
				t.Errorf("attr %s = %#v, want %#v", k, got[k], v)
			}
		}
		checkRender(t, tr, m)
	})
}
