package mem

// The exported-symbol documentation gate: `go doc mscclpp/internal/mem`
// must be self-explanatory. CI additionally runs staticcheck's stylecheck
// comment rules on this package; this test keeps the gate in plain
// `go test` too.

import (
	"strings"
	"testing"

	"mscclpp/internal/doccheck"
)

func TestExportedSymbolsDocumented(t *testing.T) {
	missing, err := doccheck.Undocumented(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) > 0 {
		t.Fatalf("internal/mem has undocumented exported symbols:\n  %s", strings.Join(missing, "\n  "))
	}
}
