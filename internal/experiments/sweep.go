package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/config"
)

// SweepSpec describes a cartesian parameter sweep. Empty dimensions take
// their paper defaults.
type SweepSpec struct {
	Apps         []string
	ProcsPerNode []int
	Pressures    []config.Pressure
	AMWays       []int
	DRAM         []float64

	// Topology applies one interconnect to every point: "" or "bus" is
	// the snooping bus, "ring" the ring of clusters. Ring geometry and
	// link latency follow the config.Machine conventions.
	Topology      string
	Clusters      int
	LinkLatencyNs int
	// ScalePressure holds the fractional memory pressure constant at
	// non-paper machine sizes (see config.Machine.ScalePressure).
	ScalePressure bool
}

// normalize fills defaulted dimensions.
func (s SweepSpec) normalize() SweepSpec {
	if len(s.Apps) == 0 {
		s.Apps = Apps()
	}
	if len(s.ProcsPerNode) == 0 {
		s.ProcsPerNode = []int{1, 2, 4}
	}
	if len(s.Pressures) == 0 {
		s.Pressures = config.Pressures
	}
	if len(s.AMWays) == 0 {
		s.AMWays = []int{4}
	}
	if len(s.DRAM) == 0 {
		s.DRAM = []float64{1}
	}
	return s
}

// Points returns the number of simulations the sweep will run.
func (s SweepSpec) Points() int {
	s = s.normalize()
	return len(s.Apps) * len(s.ProcsPerNode) * len(s.Pressures) *
		len(s.AMWays) * len(s.DRAM)
}

// SweepRow is one measured point.
type SweepRow struct {
	App           string
	ProcsPerNode  int
	MP            string
	AMWays        int
	DRAM, NC, Bus float64
	Topology      string
	Clusters      int

	ExecNs                              int64
	RNMr                                float64
	BusReadNs, BusWriteNs, BusReplaceNs int64
	Injects, Promotes                   int64
}

// Sweep runs every point of the spec (memoized like everything else) on
// the worker pool; rows come back in cartesian order regardless of Jobs.
func (r *Runner) Sweep(spec SweepSpec) ([]SweepRow, error) {
	spec = spec.normalize()
	var jobs []job
	var rows []SweepRow
	for _, app := range spec.Apps {
		for _, ppn := range spec.ProcsPerNode {
			for _, mp := range spec.Pressures {
				for _, ways := range spec.AMWays {
					for _, dram := range spec.DRAM {
						cfg := config.Baseline(ppn, mp)
						cfg.AMWays = ways
						cfg.DRAMBandwidth = dram
						cfg.Topology = spec.Topology
						cfg.Clusters = spec.Clusters
						cfg.LinkLatencyNs = spec.LinkLatencyNs
						cfg.ScalePressure = spec.ScalePressure
						topo := spec.Topology
						if topo == "" {
							topo = "bus"
						}
						jobs = append(jobs, job{app, cfg})
						rows = append(rows, SweepRow{
							App:          app,
							ProcsPerNode: ppn,
							MP:           mp.Label,
							AMWays:       ways,
							DRAM:         dram,
							NC:           cfg.NCBandwidth,
							Bus:          cfg.BusBandwidth,
							Topology:     topo,
							Clusters:     cfg.Clusters,
						})
					}
				}
			}
		}
	}
	results, err := r.runAll(jobs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		rows[i].ExecNs = int64(res.ExecTime)
		rows[i].RNMr = res.RNMr()
		rows[i].BusReadNs = int64(res.BusOccupancy[0])
		rows[i].BusWriteNs = int64(res.BusOccupancy[1])
		rows[i].BusReplaceNs = int64(res.BusOccupancy[2])
		rows[i].Injects = res.Protocol.Injects
		rows[i].Promotes = res.Protocol.Promotes
	}
	return rows, nil
}

// WriteSweepCSV emits the rows as CSV with a header, for plotting tools.
func WriteSweepCSV(w io.Writer, rows []SweepRow) error {
	cw := csv.NewWriter(w)
	header := []string{"app", "procs_per_node", "mp", "am_ways", "dram_bw",
		"nc_bw", "bus_bw", "topology", "clusters", "exec_ns", "rnmr",
		"bus_read_ns", "bus_write_ns", "bus_replace_ns", "injects", "promotes"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			r.App,
			strconv.Itoa(r.ProcsPerNode),
			r.MP,
			strconv.Itoa(r.AMWays),
			fmt.Sprintf("%g", r.DRAM),
			fmt.Sprintf("%g", r.NC),
			fmt.Sprintf("%g", r.Bus),
			r.Topology,
			strconv.Itoa(r.Clusters),
			strconv.FormatInt(r.ExecNs, 10),
			strconv.FormatFloat(r.RNMr, 'f', 6, 64),
			strconv.FormatInt(r.BusReadNs, 10),
			strconv.FormatInt(r.BusWriteNs, 10),
			strconv.FormatInt(r.BusReplaceNs, 10),
			strconv.FormatInt(r.Injects, 10),
			strconv.FormatInt(r.Promotes, 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
