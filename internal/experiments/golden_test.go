package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// render returns a report's two files as replend-experiments writes them:
// the table with its chart (if any) beneath, and the CSV.
func render(r Report) (txt, csv string) {
	txt = r.Table()
	if plot := PlotOf(r); plot != "" {
		txt += "\n" + plot
	}
	return txt, r.CSV()
}

// checkGolden compares a report's files with its pinned files under
// testdata/.
func checkGolden(t *testing.T, r Report) {
	t.Helper()
	txt, csv := render(r)
	for _, f := range []struct{ file, got string }{{r.Name() + ".txt", txt}, {r.Name() + ".csv", csv}} {
		file, got := f.file, f.got
		want, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s differs from testdata/%s:\n--- got ---\n%s\n--- want ---\n%s", file, file, got, want)
		}
	}
}

// TestReportsMatchGolden pins every experiment's report bytes: each name
// in Names() runs once at tiny() options, and its table, chart and CSV
// must equal the files under testdata/ byte for byte. The files were
// written by `replend-experiments -all -scale 0.04 -runs 2 -seed 11` on
// linux/amd64, the CI platform; a platform that fuses multiply-adds may
// differ in the last printed digit.
func TestReportsMatchGolden(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			checkGolden(t, tinyRun(t, name))
		})
	}
}
