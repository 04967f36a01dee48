package experiments

import (
	"fmt"
	"io"

	"repro/internal/analysis"
	"repro/internal/stats"
)

// Artifacts lists the renderable evaluation artifacts in the order
// cmd/experiments regenerates them. Every name is valid input to
// RenderArtifact. The scaled-topology study ("fig2scaled") is not part
// of the default set — it simulates 64- and 128-processor machines and
// is requested explicitly via -only.
func Artifacts() []string {
	return []string{
		"table1", "fig2", "fig3", "fig4", "fig5", "thresholds",
		"sens-dram", "sens-node", "sens-bus", "latency", "sens-mp",
	}
}

// ExtraArtifacts lists artifacts renderable on demand but excluded from
// the default regeneration set.
func ExtraArtifacts() []string {
	return []string{"fig2scaled", "fig2irregular"}
}

// RenderArtifact runs one evaluation artifact on the runner and writes
// exactly the bytes `cmd/experiments -only name` prints for it — the
// single rendering path shared by the CLI and the comasrv study
// endpoints, so a cached service response can be diffed against CLI
// output. chart switches figures 3-5 to stacked-bar form (the CLI's
// -chart flag); other artifacts ignore it.
func RenderArtifact(w io.Writer, r *Runner, name string, chart bool) error {
	switch name {
	case "table1":
		rows, err := r.Table1()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Table 1: applications and working sets")
		if err := WriteTable1(w, rows); err != nil {
			return err
		}
	case "fig2":
		f, err := r.Figure2()
		if err != nil {
			return err
		}
		if err := f.Write(w); err != nil {
			return err
		}
	case "fig3", "fig4":
		var f *TrafficFigure
		var err error
		if name == "fig3" {
			f, err = r.Figure3()
		} else {
			f, err = r.Figure4()
		}
		if err != nil {
			return err
		}
		if chart {
			err = f.Chart(w)
		} else {
			err = f.Write(w)
		}
		if err != nil {
			return err
		}
	case "fig5":
		f, err := r.Figure5()
		if err != nil {
			return err
		}
		var werr error
		if chart {
			werr = f.Chart(w)
		} else {
			werr = f.Write(w)
		}
		if werr != nil {
			return werr
		}
	case "thresholds":
		fmt.Fprintln(w, "Replication thresholds (paper Section 4.2 analytical model)")
		t := stats.NewTable("procs/node", "AM ways", "threshold", "exact")
		for _, row := range analysis.PaperTable() {
			t.Row(row.Machine.ProcsPerNode, row.Machine.AMWays,
				stats.Pct(row.Threshold), fmt.Sprintf("%d/%d", row.Num, row.Den))
		}
		if err := t.Write(w); err != nil {
			return err
		}
	case "sens-dram":
		ss, err := r.SensitivityDRAM()
		if err != nil {
			return err
		}
		for i, s := range ss {
			if err := s.Write(w); err != nil {
				return err
			}
			if i < len(ss)-1 {
				fmt.Fprintln(w)
			}
		}
	case "sens-node":
		s, err := r.SensitivityNode()
		if err != nil {
			return err
		}
		if err := s.Write(w); err != nil {
			return err
		}
	case "sens-bus":
		ss, err := r.SensitivityBus()
		if err != nil {
			return err
		}
		for i, s := range ss {
			if err := s.Write(w); err != nil {
				return err
			}
			if i < len(ss)-1 {
				fmt.Fprintln(w)
			}
		}
	case "latency":
		rows, err := r.Latency()
		if err != nil {
			return err
		}
		if err := WriteLatency(w, rows); err != nil {
			return err
		}
	case "sens-mp":
		rows, err := r.SensitivityPressure()
		if err != nil {
			return err
		}
		if err := WritePressure(w, rows); err != nil {
			return err
		}
	case "fig2scaled":
		f, err := r.Figure2Scaled(ScaledSpec{})
		if err != nil {
			return err
		}
		if err := f.Write(w); err != nil {
			return err
		}
	case "fig2irregular":
		f, err := r.Figure2Irregular()
		if err != nil {
			return err
		}
		if err := f.Write(w); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown artifact %q (known: %v, extra: %v)",
			name, Artifacts(), ExtraArtifacts())
	}
	fmt.Fprintln(w)
	return nil
}
