// Chapter 3 artifacts: the model parameter tables. These are inputs, but
// regenerating them verifies the constants compiled into the library
// against the paper.

package exp

import (
	"fmt"

	"dramtherm/internal/fbconfig"
	"dramtherm/internal/platform"
	"dramtherm/internal/report"
)

func init() {
	register("table3.1", "AMB power model parameters (Eq. 3.2)", table31)
	register("table3.2", "Thermal model parameters for AMB and DRAM", table32)
	register("table3.3", "DRAM ambient temperature model parameters", table33)
	register("table4.1", "Level-1 simulator parameters", table41)
	register("table4.3", "Thermal emergency levels and default settings", table43)
	register("table4.4", "Processor power consumption of DTM schemes", table44)
	register("table5.1", "Chapter 5 thermal emergency levels and running states", table51)
}

func table31(*Runner) (Result, error) {
	ap := fbconfig.DefaultAMBPower
	dp := fbconfig.DefaultDRAMPower
	t := report.NewTable("Table 3.1: AMB power parameters (FBDIMM, 1GB DDR2-667x8, 110nm)", "Parameter", "Value")
	t.AddRow("P_AMB_idle (last DIMM)", fmt.Sprintf("%.1f watt", ap.IdleLast))
	t.AddRow("P_AMB_idle (other DIMMs)", fmt.Sprintf("%.1f watt", ap.IdleOther))
	t.AddRow("beta (bypass)", fmt.Sprintf("%.2f watt/(GB/s)", ap.BypassCoef))
	t.AddRow("gamma (local)", fmt.Sprintf("%.2f watt/(GB/s)", ap.LocalCoef))
	t2 := report.NewTable("DRAM power parameters (Eq. 3.1)", "Parameter", "Value")
	t2.AddRow("P_DRAM_static", fmt.Sprintf("%.2f watt", dp.Static))
	t2.AddRow("alpha1 (read)", fmt.Sprintf("%.2f watt/(GB/s)", dp.ReadCoef))
	t2.AddRow("alpha2 (write)", fmt.Sprintf("%.2f watt/(GB/s)", dp.WriteCoef))
	return Result{ID: "table3.1", Tables: []*report.Table{t, t2}}, nil
}

func table32(*Runner) (Result, error) {
	t := report.NewTable("Table 3.2: thermal model parameters (bold columns used in experiments: AOHS 1.5, FDHS 1.0)",
		"Config", "Psi_AMB", "Psi_DRAM_AMB", "Psi_DRAM", "Psi_AMB_DRAM", "tau_AMB", "tau_DRAM")
	for _, c := range fbconfig.Coolings {
		t.AddRowf(c.Name(), c.PsiAMB, c.PsiDRAMAMB, c.PsiDRAM, c.PsiAMBDRAM, c.TauAMB, c.TauDRAM)
	}
	return Result{ID: "table3.2", Tables: []*report.Table{t}}, nil
}

func table33(*Runner) (Result, error) {
	t := report.NewTable("Table 3.3: DRAM ambient temperature model parameters",
		"Model", "Inlet FDHS_1.0", "Inlet AOHS_1.5", "PsiCPU_MEM*xi", "tau_CPU_DRAM")
	iso, integ := fbconfig.AmbientIsolated, fbconfig.AmbientIntegrated
	t.AddRowf("Isolated", iso.InletFDHS10, iso.InletAOHS15, iso.PsiXi, iso.TauCPUDRAM)
	t.AddRowf("Integrated", integ.InletFDHS10, integ.InletAOHS15, integ.PsiXi, integ.TauCPUDRAM)
	return Result{ID: "table3.3", Tables: []*report.Table{t}}, nil
}

func table41(*Runner) (Result, error) {
	p := fbconfig.DefaultSimParams
	t := report.NewTable("Table 4.1: simulator parameters", "Parameter", "Value")
	t.AddRow("Processor", fmt.Sprintf("%d-core, %d-issue per core", p.Cores, p.IssueWidth))
	var lv string
	for i, l := range p.DVFS {
		if i > 0 {
			lv += ", "
		}
		lv += fmt.Sprintf("%.1fGHz@%.2fV", l.FreqGHz, l.Volt)
	}
	t.AddRow("Clock frequency scaling", lv)
	t.AddRow("ROB/LQ/SQ", fmt.Sprintf("%d/%d/%d", p.ROB, p.LQ, p.SQ))
	t.AddRow("L1 caches (per core)", fmt.Sprintf("%dKB, %d-way, %dB line", p.L1SizeKB, p.L1Ways, p.LineBytes))
	t.AddRow("L2 cache (shared)", fmt.Sprintf("%dMB, %d-way, %d-cycle hit", p.L2SizeKB/1024, p.L2Ways, p.L2HitLatency))
	t.AddRow("Memory", fmt.Sprintf("%d logic (%d physical) channels, %d DIMMs/channel, %d banks/DIMM",
		p.LogicalChannels, p.PhysicalChannels, p.DIMMsPerChannel, p.BanksPerDIMM))
	t.AddRow("Channel bandwidth", fmt.Sprintf("%dMT/s FBDIMM-DDR2", p.ChannelMTps))
	t.AddRow("Memory controller", fmt.Sprintf("%d-entry buffer, %.0fns overhead", p.CtrlQueue, p.CtrlOverheadNS))
	t.AddRow("DTM parameters", fmt.Sprintf("interval %.0fms, overhead %.0fus, scale 25%%", p.DTMIntervalMS, p.DTMOverheadUS))
	t.AddRow("DRAM timing (5-5-5)", fmt.Sprintf("tRCD %.0fns, tCL %.0fns, tRP %.0fns", p.TRCD, p.TCL, p.TRP))
	t.AddRow("Other DRAM timing", fmt.Sprintf("tRAS=%.0f tRC=%.0f tWTR=%.0f tWL=%.0f tRRD=%.0f (ns)",
		p.TRAS, p.TRC, p.TWTR, p.TWL, p.TRRD))
	return Result{ID: "table4.1", Tables: []*report.Table{t}}, nil
}

func table43(*Runner) (Result, error) {
	t := report.NewTable("Table 4.3: thermal emergency levels and default settings",
		"Level", "AMB range (C)", "DRAM range (C)", "TS", "BW", "ACG cores", "CDVFS")
	rows := [][]string{
		{"L1", "(-,108.0)", "(-,83.0)", "On", "No limit", "4", "3.2GHz@1.55V"},
		{"L2", "[108.0,109.0)", "[83.0,84.0)", "On", "19.2GB/s", "3", "2.4GHz@1.35V"},
		{"L3", "[109.0,109.5)", "[84.0,84.5)", "On/Off", "12.8GB/s", "2", "1.6GHz@1.15V"},
		{"L4", "[109.5,110.0)", "[84.5,85.0)", "On/Off", "6.4GB/s", "1", "0.8GHz@0.95V"},
		{"L5", "[110.0,-)", "[85.0,-)", "Off", "Off", "0", "Stopped"},
	}
	for _, r := range rows {
		t.AddRow(r...)
	}
	return Result{ID: "table4.3", Tables: []*report.Table{t}}, nil
}

func table44(*Runner) (Result, error) {
	cp := fbconfig.DefaultCPUPower
	t := report.NewTable("Table 4.4: processor power consumption of DTM schemes",
		"DTM-ACG active cores", "Power (W)", "DTM-CDVFS setting", "Power (W)")
	dv := fbconfig.DTMDVFS
	rows := []struct {
		n   int
		lvl string
		w   float64
	}{
		{0, "(-,0)", cp.IdleWatt},
		{1, fmt.Sprintf("(%.2fV,%.1fGHz)", dv[3].Volt, dv[3].FreqGHz), cp.DVFSWatt[dv[3]]},
		{2, fmt.Sprintf("(%.2fV,%.1fGHz)", dv[2].Volt, dv[2].FreqGHz), cp.DVFSWatt[dv[2]]},
		{3, fmt.Sprintf("(%.2fV,%.1fGHz)", dv[1].Volt, dv[1].FreqGHz), cp.DVFSWatt[dv[1]]},
		{4, fmt.Sprintf("(%.2fV,%.1fGHz)", dv[0].Volt, dv[0].FreqGHz), cp.DVFSWatt[dv[0]]},
	}
	for _, r := range rows {
		t.AddRowf(r.n, cp.ActiveCoresWatt(r.n), r.lvl, r.w)
	}
	return Result{ID: "table4.4", Tables: []*report.Table{t}}, nil
}

func table51(r *Runner) (Result, error) {
	var tables []*report.Table
	for _, m := range []platform.Machine{platform.PE1950(), platform.SR1500AL()} {
		t := report.NewTable(fmt.Sprintf("Table 5.1 (%s): emergency levels and running states", m.Name),
			"Level", "AMB range (C)", "BW", "ACG cores", "CDVFS", "COMB")
		freq := []string{"3.00GHz", "2.67GHz", "2.33GHz", "2.00GHz"}
		for i := 0; i < 4; i++ {
			lo := "-"
			if i > 0 {
				lo = fmt.Sprintf("%.0f", m.AMBLevels[i-1])
			}
			bw := "No limit"
			if i > 0 {
				bw = fmt.Sprintf("%.1fGB/s", m.BWCaps[i-1])
			}
			cores := []string{"4", "3", "2", "2"}[i]
			comb := fmt.Sprintf("%s@%s", []string{"4", "3", "2", "2"}[i], freq[i])
			t.AddRow(fmt.Sprintf("L%d", i+1),
				fmt.Sprintf("[%s,%.0f)", lo, m.AMBLevels[i]), bw, cores, freq[i], comb)
		}
		tables = append(tables, t)
	}
	return Result{ID: "table5.1", Tables: tables}, nil
}
