// Reflection guards for the two fixed binary layouts: the request key's
// preimage (key.go) and the evalstore record. Each writes a hand-listed
// set of leaves, so a field added to a struct they cover would silently
// drop out of the key (two requests sharing an identity) or out of the
// record (a hit serving a zero). These tests walk every leaf by
// reflection and fail until the layouts write the new one.

package evalengine_test

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"xpscalar/internal/evalengine"
	"xpscalar/internal/evalstore"
	"xpscalar/internal/power"
	"xpscalar/internal/sim"
	"xpscalar/internal/tech"
	"xpscalar/internal/workload"
)

// walkLeaves calls visit on every leaf of v in declaration order. Structs
// and arrays are walked; a bool, integer, float or string is a leaf. Any
// other kind — slice, map, pointer, interface — and any unexported field
// fails the test: a fixed layout cannot write it.
func walkLeaves(t *testing.T, v reflect.Value, path string, visit func(path string, leaf reflect.Value)) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				t.Fatalf("%s.%s is unexported: a fixed layout cannot write it", path, f.Name)
			}
			walkLeaves(t, v.Field(i), path+"."+f.Name, visit)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			walkLeaves(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), visit)
		}
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.String:
		visit(path, v)
	default:
		t.Fatalf("%s is a %s: a fixed layout cannot write it", path, v.Kind())
	}
}

// leafBits renders a leaf exactly: floats as their IEEE-754 bits.
func leafBits(v reflect.Value) string {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		return fmt.Sprintf("%#x", math.Float64bits(v.Float()))
	}
	return fmt.Sprintf("%#v", v.Interface())
}

// TestKeyCoversEveryLeaf perturbs each leaf of the request — every field
// of sim.Config, workload.Profile and tech.Params, plus the budget and the
// objective — by the smallest step its kind allows (a float moves to the
// next representable value). Every perturbation must change the key, and
// no two may share one.
func TestKeyCoversEveryLeaf(t *testing.T) {
	tp := tech.Default()
	cfg := sim.InitialConfig(tp)
	p := workload.Suite()[0]
	const budget = 5000
	key := func() evalengine.Key { return evalengine.KeyOf(cfg, p, budget, tp, power.ObjIPT) }

	base := key()
	seen := map[evalengine.Key]string{base: "<base>"}
	check := func(path string, k evalengine.Key) {
		if prev, dup := seen[k]; dup {
			t.Errorf("perturbing %s gives the key of %s", path, prev)
		}
		seen[k] = path
	}
	for _, root := range []struct {
		name string
		v    reflect.Value
	}{
		{"sim.Config", reflect.ValueOf(&cfg).Elem()},
		{"workload.Profile", reflect.ValueOf(&p).Elem()},
		{"tech.Params", reflect.ValueOf(&tp).Elem()},
	} {
		walkLeaves(t, root.v, root.name, func(path string, leaf reflect.Value) {
			old := reflect.New(leaf.Type()).Elem()
			old.Set(leaf)
			switch leaf.Kind() {
			case reflect.Bool:
				leaf.SetBool(!leaf.Bool())
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				leaf.SetInt(leaf.Int() + 1)
			case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				leaf.SetUint(leaf.Uint() + 1)
			case reflect.Float32, reflect.Float64:
				leaf.SetFloat(math.Nextafter(leaf.Float(), math.Inf(1)))
			case reflect.String:
				leaf.SetString(leaf.String() + "x")
			}
			check(path, key())
			leaf.Set(old)
		})
	}
	if key() != base {
		t.Fatal("restoring every leaf did not restore the key")
	}
	check("budget", evalengine.KeyOf(cfg, p, budget+1, tp, power.ObjIPT))
	check("objective", evalengine.KeyOf(cfg, p, budget, tp, power.ObjIPTPerWatt))
}

// TestRecordCoversEveryLeaf fills every leaf of an Eval with a distinct
// value and requires the record to carry each one through bit for bit.
// It also pins the leaf count to the record header: a new leaf changes
// the layout, so it fails here until the codec writes the leaf and the
// header's version is bumped, which orphans records of the old layout.
func TestRecordCoversEveryLeaf(t *testing.T) {
	const header, leaves = "xpeval-record-v2\n", 46

	var want evalengine.Eval
	n := 0
	walkLeaves(t, reflect.ValueOf(&want).Elem(), "Eval", func(_ string, leaf reflect.Value) {
		n++
		switch leaf.Kind() {
		case reflect.Bool:
			leaf.SetBool(true)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			leaf.SetInt(int64(n))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			leaf.SetUint(uint64(n))
		case reflect.Float32, reflect.Float64:
			leaf.SetFloat(float64(n) + 0.25)
		case reflect.String:
			leaf.SetString(fmt.Sprintf("leaf-%d", n))
		}
	})

	var buf bytes.Buffer
	if err := evalstore.EncodeRecord(&buf, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte(header)) || n != leaves {
		t.Fatalf("Eval has %d leaves and records open with %q, but %q was cut for %d leaves: "+
			"a changed layout needs a new header version in evalstore, and this pin updated with it",
			n, buf.Bytes()[:len(header)], header, leaves)
	}
	got, err := evalstore.DecodeRecord(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var wantLeaves []string
	walkLeaves(t, reflect.ValueOf(&want).Elem(), "Eval", func(path string, leaf reflect.Value) {
		wantLeaves = append(wantLeaves, path+" = "+leafBits(leaf))
	})
	i := 0
	walkLeaves(t, reflect.ValueOf(&got).Elem(), "Eval", func(path string, leaf reflect.Value) {
		if g := path + " = " + leafBits(leaf); g != wantLeaves[i] {
			t.Errorf("the record does not carry a leaf: decoded %s, encoded %s", g, wantLeaves[i])
		}
		i++
	})
}
