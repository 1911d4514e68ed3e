package powerbench

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// A cell addresses one number in a markdown or TSV file.
type cell struct {
	file    string // path from the repository root
	section string // markdown: the heading text the number sits under
	row     string // the table row's first column; for prose, the text just before the number
	col     int    // the table column, 0 being the row label; prose for running text
}

// prose marks a cell in running text rather than a table.
const prose = -1

func doc(section, row string, col int) cell {
	return cell{"EXPERIMENTS.md", section, row, col}
}

func tsv(name, row string, col int) cell {
	return cell{"results/" + name, "", row, col}
}

func reportMD(section, row string, col int) cell {
	return cell{"results/report.md", section, row, col}
}

// experimentClaims ties each measured number EXPERIMENTS.md quotes to the
// file in results/ it is read from, and the rounding the document prints
// it at. The ✔/✗ verdicts beside these numbers rest on the shape tests in
// internal/core, not on this table.
var experimentClaims = []struct {
	claim, source cell
	format        string
}{
	{doc("Figure 3 —", "ep.C.4 = ", prose), tsv("fig3.tsv", "ep.C.4", 1), "%.1f"},
	{doc("Figure 3 —", "HPL.4 = ", prose), tsv("fig3.tsv", "HPL.4", 1), "%.1f"},
	{doc("Figure 3 —", "bt.C.1 = ", prose), tsv("fig3.tsv", "bt.C.1", 1), "%.1f"},
	{doc("Figure 3 —", "HPL.1 = ", prose), tsv("fig3.tsv", "HPL.1", 1), "%.1f"},
	{doc("Figure 4 —", "HPL.16 = ", prose), tsv("fig4.tsv", "HPL.16", 1), "%.1f"},
	{doc("Figure 4 —", "ep.C.16 = ", prose), tsv("fig4.tsv", "ep.C.16", 1), "%.1f"},
	{doc("Table II —", "at 16 processes: HPL ", prose), tsv("table2.tsv", "16", 1), "%.2f"},
	{doc("Table II —", "kW,\nEP ", prose), tsv("table2.tsv", "16", 3), "%.2f"},
	{doc("Figure 10 —", "1", 2), tsv("fig10.tsv", "1", 1), "%.1f"},
	{doc("Figure 10 —", "2", 2), tsv("fig10.tsv", "2", 1), "%.1f"},
	{doc("Figure 10 —", "4", 2), tsv("fig10.tsv", "4", 1), "%.1f"},
	{doc("Figure 10 —", "1", 3), tsv("fig10.tsv", "1", 2), "%.3f"},
	{doc("Figure 10 —", "2", 3), tsv("fig10.tsv", "2", 2), "%.3f"},
	{doc("Figure 10 —", "4", 3), tsv("fig10.tsv", "4", 2), "%.3f"},
	{doc("Figure 11 —", "1", 2), tsv("fig11.tsv", "1", 1), "%.1f"},
	{doc("Figure 11 —", "2", 2), tsv("fig11.tsv", "2", 1), "%.1f"},
	{doc("Figure 11 —", "4", 2), tsv("fig11.tsv", "4", 1), "%.1f"},
	{doc("Tables IV–VI —", "Xeon-E5462", 3), tsv("table4.tsv", "Score (mean PPW)", 3), "%.4f"},
	{doc("Tables IV–VI —", "Opteron-8347", 3), tsv("table5.tsv", "Score (mean PPW)", 3), "%.4f"},
	{doc("Tables IV–VI —", "Xeon-4870", 3), tsv("table6.tsv", "Score (mean PPW)", 3), "%.4f"},
	{doc("Table VII —", "Multiple R", 2), tsv("table7.tsv", "Multiple R", 1), "%.4f"},
	{doc("Table VII —", "R Square", 2), tsv("table7.tsv", "R Square", 1), "%.4f"},
	{doc("Table VII —", "Adjusted R Square", 2), tsv("table7.tsv", "Adjusted R Square", 1), "%.4f"},
	{doc("Table VII —", "Standard Error", 2), tsv("table7.tsv", "Standard Error", 1), "%.4f"},
	{doc("Table VII —", "Observation", 2), tsv("table7.tsv", "Observation", 1), "%.0f"},
	{doc("Table VIII —", "Ours", 1), tsv("table8.tsv", "b1", 2), "%.4f"},
	{doc("Table VIII —", "Ours", 2), tsv("table8.tsv", "b2", 2), "%.4f"},
	{doc("Table VIII —", "Ours", 3), tsv("table8.tsv", "b3", 2), "%.4f"},
	{doc("Table VIII —", "Ours", 4), tsv("table8.tsv", "b4", 2), "%.4f"},
	{doc("Table VIII —", "Ours", 5), tsv("table8.tsv", "b5", 2), "%.4f"},
	{doc("Table VIII —", "Ours", 6), tsv("table8.tsv", "b6", 2), "%.4f"},
	{doc("Table VIII —", "Ours", 7), tsv("table8.tsv", "C", 2), "%.1e"},
	{doc("Figures 12–13", "NPB-B", 2), tsv("r2.tsv", "B", 1), "%.4f"},
	{doc("Figures 12–13", "NPB-C", 2), tsv("r2.tsv", "C", 1), "%.4f"},
	{doc("Extensions", "class-B verification R² from ", prose), tsv("r2.tsv", "B", 1), "%.2f"},
	{doc("Extensions", "to **", prose), reportMD("Power regression", "class B R² = ", prose), "%.2f"},
	{doc("Extensions", "EP score ", prose), reportMD("Method comparison", "Xeon-E5462", 4), "%.3f"},
	{doc("Extensions", "(E5462), ", prose), reportMD("Method comparison", "Opteron-8347", 4), "%.3f"},
	{doc("Extensions", "(Opteron), ", prose), reportMD("Method comparison", "Xeon-4870", 4), "%.3f"},
	{doc("Known divergences", "We output ", prose), tsv("table4.tsv", "Score (mean PPW)", 3), "%.4f"},
	{doc("Known divergences", "Verification R² for NPB-B is ", prose), tsv("r2.tsv", "B", 1), "%.2f"},
	{doc("Known divergences", "NPB-C matches at ", prose), tsv("r2.tsv", "C", 1), "%.2f"},
}

// TestExperimentsMatchResults checks every number of experimentClaims: the
// value EXPERIMENTS.md prints must equal its source cell in results/ at
// the printed rounding.
func TestExperimentsMatchResults(t *testing.T) {
	for _, c := range experimentClaims {
		claim, err := c.claim.read()
		if err != nil {
			t.Error(err)
			continue
		}
		src, err := c.source.read()
		if err != nil {
			t.Error(err)
			continue
		}
		v, err := strconv.ParseFloat(src, 64)
		if err != nil {
			t.Errorf("%s: %v", c.source, err)
			continue
		}
		if want := fmt.Sprintf(c.format, v); claim != want {
			t.Errorf("%s prints %s; %s holds %s, which prints as %s", c.claim, claim, c.source, src, want)
		}
	}
}

func (c cell) String() string {
	if c.section == "" {
		return fmt.Sprintf("%s row %q column %d", c.file, c.row, c.col)
	}
	if c.col == prose {
		return fmt.Sprintf("%s %q after %q", c.file, c.section, c.row)
	}
	return fmt.Sprintf("%s %q row %q column %d", c.file, c.section, c.row, c.col)
}

// read returns the number at c, with typographic minus signs replaced by
// ASCII ones.
func (c cell) read() (string, error) {
	data, err := os.ReadFile(c.file)
	if err != nil {
		return "", err
	}
	text := string(data)
	if c.section != "" {
		_, after, ok := strings.Cut(text, "\n## "+c.section)
		if !ok {
			return "", fmt.Errorf("%s: no section %q", c.file, c.section)
		}
		text, _, _ = strings.Cut(after, "\n## ")
	}
	if c.col == prose {
		_, after, ok := strings.Cut(text, c.row)
		if !ok {
			return "", fmt.Errorf("%s: text not found", c)
		}
		end := strings.IndexFunc(after, func(r rune) bool {
			return !strings.ContainsRune("0123456789.", r)
		})
		if end < 0 {
			end = len(after)
		}
		return strings.TrimSuffix(after[:end], "."), nil
	}
	sep := "|"
	if strings.HasSuffix(c.file, ".tsv") {
		sep = "\t"
	}
	for _, line := range strings.Split(text, "\n") {
		cells := strings.Split(strings.Trim(line, sep), sep)
		if strings.TrimSpace(cells[0]) == c.row && c.col < len(cells) {
			return strings.ReplaceAll(strings.TrimSpace(cells[c.col]), "−", "-"), nil
		}
	}
	return "", fmt.Errorf("%s: no such cell", c)
}
