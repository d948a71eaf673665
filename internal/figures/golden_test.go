package figures

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"testing"
)

// Golden SHA-256 digests of the quick fig9 (reduced Armv8 3-level panel)
// and fig10 CSVs. They were captured before the memsim run-ahead execution
// core landed, and re-printed once since, when CLoF and HMCS switched from a
// per-level keep-local counter to tenure accounting (the fig9 panel and
// both LevelDB panels moved; the Kyoto panels did not). A simulator change
// is only allowed to change how fast the simulator runs, never what it
// computes: any drift in these digests means the virtual-time/seq schedule
// changed and the fast path broke determinism.
//
// To reprint the digests after an *intentional* model change, run with
// CLOF_GOLDEN_PRINT=1 and update the constants (and say why in the commit).
const (
	goldenFig9ArmL3Quick = "267d362319fdf39d84831c2b636c3a8b5adec174dcf07738b8af0329ad6e93c6"

	goldenFig10LevelDBX86   = "1bb1063f97890d5e3e90d8a36eb1c19017b639f37dc95c7882a29173b6b54261"
	goldenFig10KyotoX86     = "3cfe58939546a7e1b291d98a1d9106c3200d7a4bb370d97a823381e27f1372a4"
	goldenFig10LevelDBArmv8 = "f14daf1c856ca8a78c32c4a7090916a17fc7bf3dae5fec678dff4926b6c4e0e0"
	goldenFig10KyotoArmv8   = "a06bdd3fba8d4fb001df99efb1f78513a6fe912f6130f215f3685468e2cfd293"
)

// csvSHA renders a figure the way cmd/clof-figures writes it and digests it.
func csvSHA(t *testing.T, f *Figure) string {
	t.Helper()
	sum := sha256.Sum256(csvBytes(t, f))
	return hex.EncodeToString(sum[:])
}

func checkGolden(t *testing.T, name, got, want string) {
	t.Helper()
	if os.Getenv("CLOF_GOLDEN_PRINT") != "" {
		fmt.Printf("golden %s = %q\n", name, got)
		return
	}
	if got != want {
		t.Errorf("%s CSV digest drifted:\n  got  %s\n  want %s\n"+
			"the simulated schedule changed — the execution core is no longer bit-identical", name, got, want)
	}
}

// TestGoldenFig9QuickCSV pins the quick fig9 reduced panel byte-for-byte,
// at -j 1 and -j 8 (ISSUE 4 acceptance: determinism preserved exactly).
func TestGoldenFig9QuickCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("composition sweep is expensive")
	}
	for _, jobs := range []int{1, 8} {
		o := quick
		o.Jobs = jobs
		res := Fig9Panel(Arm(), 3, o)
		checkGolden(t, fmt.Sprintf("fig9-arm-l3-quick (-j %d)", jobs), csvSHA(t, res.Figure), goldenFig9ArmL3Quick)
	}
}

// TestGoldenFig10QuickCSV pins all four quick fig10 panels byte-for-byte,
// at -j 1 and -j 8.
func TestGoldenFig10QuickCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("fig10 is expensive")
	}
	want := map[string]string{
		"fig10-leveldb-x86":   goldenFig10LevelDBX86,
		"fig10-kyoto-x86":     goldenFig10KyotoX86,
		"fig10-leveldb-armv8": goldenFig10LevelDBArmv8,
		"fig10-kyoto-armv8":   goldenFig10KyotoArmv8,
	}
	for _, jobs := range []int{1, 8} {
		o := quick
		o.Runs = 1
		o.Jobs = jobs
		for _, f := range Fig10(o) {
			w, ok := want[f.ID]
			if !ok {
				t.Fatalf("unexpected fig10 panel %q", f.ID)
			}
			checkGolden(t, fmt.Sprintf("%s (-j %d)", f.ID, jobs), csvSHA(t, f), w)
		}
	}
}
