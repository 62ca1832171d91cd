package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// WriteTable renders rows of cells as an aligned text table with a header.
func WriteTable(w io.Writer, title string, header []string, rows [][]string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
}

func pad(s string, n int) string {
	if len(s) >= n {
		return s
	}
	return s + strings.Repeat(" ", n-len(s))
}

// fd formats a duration compactly (µs under 10ms, ms otherwise).
func fd(d time.Duration) string {
	switch {
	case d < 10*time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d.Microseconds()))
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

func pct(f float64) string { return fmt.Sprintf("%.2f%%", 100*f) }

// RenderTable2 writes Table II.
func RenderTable2(w io.Writer, rows []Table2Row) {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{r.Dataset, r.Strategy,
			fmt.Sprint(r.LCross), fmt.Sprint(r.ECross)})
	}
	WriteTable(w, "Table II: crossing properties and crossing edges",
		[]string{"Dataset", "Strategy", "|L_cross|", "|E^c|"}, cells)
}

// RenderTable3 writes Table III.
func RenderTable3(w io.Writer, rows []Table3Row) {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{r.Dataset, pct(r.MPC), pct(r.VP),
			pct(r.Plain), pct(r.SubjHashPlus), pct(r.METISPlus)})
	}
	WriteTable(w, "Table III: percentage of IEQs",
		[]string{"Dataset", "MPC", "VP", "Subject_Hash/METIS", "Subject_Hash+", "METIS+"}, cells)
}

// RenderStages writes Table IV or V.
func RenderStages(w io.Writer, title string, rows []StageRow) {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{r.Query, r.Class.String(),
			fd(r.QDT), fd(r.LET), fd(r.JT), fd(r.Total), fmt.Sprint(r.Results)})
	}
	WriteTable(w, title,
		[]string{"Query", "Class", "QDT", "LET", "JT", "Total", "Results"}, cells)
}

// RenderTable6 writes Table VI.
func RenderTable6(w io.Writer, rows []Table6Row) {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{r.Dataset, r.Strategy,
			fd(r.Partitioning), fd(r.Loading), fd(r.Total)})
	}
	WriteTable(w, "Table VI: partitioning and loading time",
		[]string{"Dataset", "Strategy", "Partitioning", "Loading", "Total"}, cells)
}

// RenderTable7 writes Table VII.
func RenderTable7(w io.Writer, rows []Table7Row) {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{r.Strategy, fmt.Sprint(r.LCross),
			fmt.Sprint(r.ECross), fd(r.Partitioning)})
	}
	WriteTable(w, "Table VII: greedy vs exact internal property selection (LUBM)",
		[]string{"Strategy", "|L_cross|", "|E^c|", "Partitioning"}, cells)
}

// RenderFig7 writes the Fig. 7 series.
func RenderFig7(w io.Writer, rows []Fig7Row) {
	strategies := []string{StratMPC, StratHash, StratMETIS, StratVP}
	header := append([]string{"Dataset", "Query", "Shape"}, strategies...)
	var cells [][]string
	for _, r := range rows {
		shape := "other"
		if r.Star {
			shape = "star"
		}
		row := []string{r.Dataset, r.Query, shape}
		for _, s := range strategies {
			row = append(row, fd(r.Times[s]))
		}
		cells = append(cells, row)
	}
	WriteTable(w, "Fig. 7: per-query online performance", header, cells)
}

// RenderFig8 writes the Fig. 8 five-number summaries.
func RenderFig8(w io.Writer, rows []Fig8Row) {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{r.Dataset, r.Strategy,
			fd(r.Min), fd(r.Q1), fd(r.Median), fd(r.Q3), fd(r.Max)})
	}
	WriteTable(w, "Fig. 8: query-log response time distribution",
		[]string{"Dataset", "Strategy", "Min", "Q1", "Median", "Q3", "Max"}, cells)
}

// RenderScalability writes the Fig. 9/10 series.
func RenderScalability(w io.Writer, rows []ScaleRow) {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{r.Dataset, fmt.Sprint(r.Triples),
			fd(r.Partitioning), fd(r.Loading), fd(r.AvgQuery)})
	}
	WriteTable(w, "Figs. 9 & 10: scalability (MPC offline and online)",
		[]string{"Dataset", "Triples", "Partitioning", "Loading", "AvgQuery"}, cells)
}

// RenderFig11 writes the Fig. 11 series, grouped per query.
func RenderFig11(w io.Writer, rows []Fig11Row) {
	byQuery := map[string][]Fig11Row{}
	var order []string
	for _, r := range rows {
		key := r.Dataset + "/" + r.Query
		if len(byQuery[key]) == 0 {
			order = append(order, key)
		}
		byQuery[key] = append(byQuery[key], r)
	}
	sort.Strings(order)
	var cells [][]string
	for _, key := range order {
		for _, r := range byQuery[key] {
			cells = append(cells, []string{r.Dataset, r.Query, r.Strategy,
				fd(r.Time), fmt.Sprint(r.PartialMatches)})
		}
	}
	WriteTable(w, "Fig. 11: partitioning-agnostic engine (gStoreD analogue), non-star queries",
		[]string{"Dataset", "Query", "Partitioning", "Time", "PartialMatches"}, cells)
}

// RenderAblationSelectors writes the selector ablation.
func RenderAblationSelectors(w io.Writer, rows []AblationSelectorRow) {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{r.Dataset, r.Selector, fmt.Sprint(r.LIn),
			fmt.Sprint(r.LCross), fmt.Sprint(r.ECross), fd(r.SelectTime)})
	}
	WriteTable(w, "Ablation: internal-property selectors",
		[]string{"Dataset", "Selector", "|L_in|", "|L_cross|", "|E^c|", "Time"}, cells)
}

// RenderAblationDSF writes the DSF ablation.
func RenderAblationDSF(w io.Writer, rows []AblationDSFRow) {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{r.Method, fd(r.SelectTime), fmt.Sprint(r.LIn)})
	}
	WriteTable(w, "Ablation: disjoint-set forest optimization (Sec. IV-D)",
		[]string{"Method", "SelectTime", "|L_in|"}, cells)
}

// RenderAblationKHop writes the k-hop replication space-cost ablation.
func RenderAblationKHop(w io.Writer, rows []AblationKHopRow) {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{r.Dataset, fmt.Sprint(r.Hops),
			fmt.Sprintf("%.3f", r.ReplicationRatio)})
	}
	WriteTable(w, "Ablation: k-hop replication space cost",
		[]string{"Dataset", "Hops", "ReplicationRatio"}, cells)
}

// RenderAblationSemijoin writes the semijoin run-time optimization ablation.
func RenderAblationSemijoin(w io.Writer, rows []AblationSemijoinRow) {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{r.Strategy, fmt.Sprint(r.Semijoin),
			fmt.Sprint(r.TuplesShipped), fd(r.TotalTime)})
	}
	WriteTable(w, "Ablation: distributed semijoin reduction (DBpedia log)",
		[]string{"Strategy", "Semijoin", "TuplesShipped", "TotalTime"}, cells)
}

// RenderAblationWeighted writes the weighted-MPC ablation.
func RenderAblationWeighted(w io.Writer, rows []AblationWeightedRow) {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{r.Selector, fmt.Sprint(r.LCross), pct(r.IEQShare)})
	}
	WriteTable(w, "Ablation: workload-weighted MPC (WatDiv log)",
		[]string{"Selector", "|L_cross|", "IEQ share"}, cells)
}

// RenderAblationLocalize writes the query-localization ablation.
func RenderAblationLocalize(w io.Writer, rows []AblationLocalizeRow) {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{fmt.Sprint(r.Localize), fd(r.SiteTime), fmt.Sprint(r.SiteCalls), fmt.Sprint(r.Queries)})
	}
	WriteTable(w, "Ablation: query localization (LUBM benchmark, MPC)",
		[]string{"Localize", "SiteTime", "SiteCalls", "Queries"}, cells)
}

// RenderAblationEpsilonK writes the ε/k sweep.
func RenderAblationEpsilonK(w io.Writer, rows []AblationEpsilonKRow) {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{fmt.Sprint(r.K), fmt.Sprintf("%.2f", r.Epsilon),
			fmt.Sprint(r.LCross), fmt.Sprint(r.ECross), fmt.Sprintf("%.3f", r.Balance)})
	}
	WriteTable(w, "Ablation: effect of k and ε on MPC (LUBM)",
		[]string{"k", "ε", "|L_cross|", "|E^c|", "Imbalance"}, cells)
}
