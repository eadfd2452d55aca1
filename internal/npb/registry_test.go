package npb_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/mpisim"
	"repro/internal/npb"
	"repro/internal/spec"
)

// TestEveryCodeConstructsAtPaperRanks: the registry's PaperRanks metadata
// must actually be a valid default — a zero-ranks Spec builds every
// registered benchmark.
func TestEveryCodeConstructsAtPaperRanks(t *testing.T) {
	codes := npb.Codes()
	if len(codes) < 10 {
		t.Fatalf("expected the full suite registered, have %v", codes)
	}
	for _, code := range codes {
		w, err := npb.Spec{Code: code, Class: "S"}.Build()
		if err != nil {
			t.Fatalf("Spec{%s}.Build at paper ranks: %v", code, err)
		}
		if w.Ranks != npb.PaperRanks(code) {
			t.Fatalf("%s built with %d ranks, want paper default %d",
				code, w.Ranks, npb.PaperRanks(code))
		}
	}
}

// TestInternalVariantMetadata: the §5.3 source-instrumented variants
// exist for exactly FT and CG, and the field-level rejection for every
// other code enumerates them.
func TestInternalVariantMetadata(t *testing.T) {
	if got, want := npb.InternalCodes(), []string{"CG", "FT"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("InternalCodes() = %v, want %v", got, want)
	}
	for _, code := range npb.InternalCodes() {
		w, err := npb.Spec{Code: code, Class: "S", Variant: "internal"}.Build()
		if err != nil {
			t.Fatalf("internal %s: %v", code, err)
		}
		if !strings.Contains(w.Name(), code) {
			t.Fatalf("internal %s built %q", code, w.Name())
		}
	}
	for _, code := range npb.Codes() {
		hasInternal := false
		for _, c := range npb.InternalCodes() {
			if c == code {
				hasInternal = true
			}
		}
		if hasInternal {
			continue
		}
		_, err := npb.Spec{Code: code, Class: "S", Variant: "internal"}.Build()
		if err == nil {
			t.Fatalf("internal variant of %s accepted; no instrumented source exists", code)
		}
		se, ok := err.(*spec.Error)
		if !ok {
			t.Fatalf("internal %s: error %T, want field-level *spec.Error", code, err)
		}
		if se.Field != "variant" {
			t.Fatalf("internal %s: blamed field %q, want variant", code, se.Field)
		}
		if !strings.Contains(se.Msg, "CG") || !strings.Contains(se.Msg, "FT") {
			t.Fatalf("internal %s: rejection %q does not enumerate CG and FT", code, se.Msg)
		}
	}
}

// TestSpecFieldRejections pins the decode contract the server's 400s are
// built from: each invalid field is blamed by its relative path.
func TestSpecFieldRejections(t *testing.T) {
	cases := []struct {
		name  string
		s     npb.Spec
		field string
	}{
		{"missing code", npb.Spec{}, "code"},
		{"unknown code", npb.Spec{Code: "ZZ"}, "code"},
		{"bad class", npb.Spec{Code: "FT", Class: "Q"}, "class"},
		{"long class", npb.Spec{Code: "FT", Class: "CC"}, "class"},
		{"negative ranks", npb.Spec{Code: "FT", Ranks: -1}, "ranks"},
		{"too many ranks", npb.Spec{Code: "FT", Ranks: mpisim.MaxRanks + 1}, "ranks"},
		{"bad variant", npb.Spec{Code: "FT", Variant: "turbo"}, "variant"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.s.Build()
			if err == nil {
				t.Fatal("accepted")
			}
			se, ok := err.(*spec.Error)
			if !ok {
				t.Fatalf("error %T, want *spec.Error", err)
			}
			if se.Field != tc.field {
				t.Fatalf("field %q, want %q", se.Field, tc.field)
			}
		})
	}
}

// TestRegisterRejectsDuplicates: registration is an init-time act; a
// collision is a programming error and must panic loudly.
func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	npb.Register(npb.Entry{Code: "FT", Build: npb.FT, PaperRanks: 8})
}
