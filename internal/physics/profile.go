// Package physics models the voltage-dependent behavior of the DDR4 DRAM
// devices the paper characterizes. It provides
//
//   - the catalog of all 30 tested DIMMs with their published RowHammer
//     characteristics at nominal VPP, at VPPmin, and at the recommended VPP
//     (paper Table 3 / Appendix A), plus the Table 1 chip summary;
//   - a per-module DeviceModel that samples deterministic per-row and
//     per-cell behavior (RowHammer thresholds, retention times, activation
//     latencies) calibrated so that running the paper's own algorithms
//     against the simulated devices lands on the published aggregates.
//
// The model separates the two error mechanisms the paper identifies:
// electron injection / capacitive crosstalk, whose strength scales with the
// wordline voltage swing and therefore *weakens* as VPP is reduced, and the
// charge-restoration weakening at low VPP (the access transistor saturates
// the cell at Vsat = min(VDD, VPP - VTcut)), which *hurts* reliability and
// produces the minority opposite-trend rows of Obsvs. 2 and 5.
package physics

// Manufacturer identifies one of the three anonymized DRAM vendors.
type Manufacturer int

// Manufacturers as anonymized in the paper.
const (
	MfrA Manufacturer = iota + 1 // Micron
	MfrB                         // Samsung
	MfrC                         // SK Hynix
)

// String returns the paper's short name for the manufacturer.
func (m Manufacturer) String() string {
	switch m {
	case MfrA:
		return "A"
	case MfrB:
		return "B"
	case MfrC:
		return "C"
	default:
		return "?"
	}
}

// FullName returns the real vendor name disclosed in Table 1.
func (m Manufacturer) FullName() string {
	switch m {
	case MfrA:
		return "Micron"
	case MfrB:
		return "Samsung"
	case MfrC:
		return "SK Hynix"
	default:
		return "unknown"
	}
}

// Electrical and timing constants of the tested DDR4 devices (JESD79-4 and
// paper §2.2, §4).
const (
	// VDDNominal is the DDR4 core supply voltage in volts.
	VDDNominal = 1.2
	// VPPNominal is the nominal wordline (pump) voltage in volts.
	VPPNominal = 2.5
	// VPPSweepStep is the granularity of the paper's VPP sweep in volts.
	VPPSweepStep = 0.1
	// TRCDNominalNS is the nominal row activation latency in nanoseconds.
	TRCDNominalNS = 13.5
	// TRASNominalNS is the nominal charge restoration latency in nanoseconds.
	TRASNominalNS = 35.0
	// TRPNominalNS is the nominal precharge latency in nanoseconds.
	TRPNominalNS = 13.5
	// TREFWNominalMS is the nominal refresh window in milliseconds.
	TREFWNominalMS = 64.0
	// CommandQuantumNS is the FPGA command scheduling granularity (§4.3:
	// "Our version of SoftMC can send a DRAM command every 1.5 ns").
	CommandQuantumNS = 1.5
	// RowHammerTestTempC is the die temperature for RowHammer and tRCD
	// tests (§4.1).
	RowHammerTestTempC = 50.0
	// RetentionTestTempC is the die temperature for retention tests (§4.1).
	RetentionTestTempC = 80.0
	// ReferenceHammerCount is the fixed per-aggressor hammer count used for
	// all BER measurements (§4.2).
	ReferenceHammerCount = 300_000
)

// ChipOrg is the chip data-path width (x4 or x8).
type ChipOrg int

// Chip organizations present in the tested population.
const (
	OrgX4 ChipOrg = 4
	OrgX8 ChipOrg = 8
)

// String formats the organization the way datasheets do ("x4"/"x8").
func (o ChipOrg) String() string {
	switch o {
	case OrgX4:
		return "x4"
	case OrgX8:
		return "x8"
	default:
		return "x?"
	}
}

// ChipsPerDIMM returns the number of DRAM chips on a 64-bit-wide DIMM with
// this organization (ECC DIMMs in the tested set are operated without the
// ECC chips, so 64 data bits / width).
func (o ChipOrg) ChipsPerDIMM() int {
	if o == OrgX4 {
		return 16
	}
	return 8
}

// OperatingPoint is a (HCfirst, BER) pair measured at one VPP level — the
// module-level RowHammer vulnerability characterization of Table 3. HCfirst
// is the minimum aggressor-row activation count observed across tested rows;
// BER is the fraction of row bits flipped by a 300K double-sided hammer.
type OperatingPoint struct {
	HCFirst float64
	BER     float64
}

// ModuleProfile describes one tested DIMM: its identity columns from
// Table 3 plus the published measurement anchors the behavioral model is
// calibrated against.
type ModuleProfile struct {
	// Name is the paper's module label (A0..A9, B0..B9, C0..C9).
	Name string
	// Mfr is the DRAM chip manufacturer.
	Mfr Manufacturer
	// Model is the DIMM model string.
	Model string
	// DensityGb is the die density in gigabits.
	DensityGb int
	// FreqMTs is the data transfer rate in MT/s.
	FreqMTs int
	// Org is the chip organization.
	Org ChipOrg
	// DieRev is the die revision letter, or "-" if undocumented.
	DieRev string
	// MfgDate is the module manufacturing date as week-year, or "-".
	MfgDate string

	// Nominal is the RowHammer operating point at VPP = 2.5 V.
	Nominal OperatingPoint
	// VPPMin is the lowest VPP (volts) at which the module still
	// communicates with the FPGA.
	VPPMin float64
	// AtVPPMin is the operating point at VPPMin.
	AtVPPMin OperatingPoint
	// VPPRec is the recommended VPP from Table 3 (argmax HCfirst policy).
	VPPRec float64
	// AtVPPRec is the operating point at VPPRec.
	AtVPPRec OperatingPoint

	// TRCDFailsNominal marks the five modules (A0-A2, B2, B5) whose
	// minimum reliable tRCD exceeds the nominal 13.5 ns at reduced VPP.
	TRCDFailsNominal bool
	// TRCDFixNS is the increased tRCD that restores reliable operation for
	// modules with TRCDFailsNominal (24 ns for Mfr A, 15 ns for Mfr B).
	TRCDFixNS float64
	// RetentionFails64ms marks the seven modules (B6, B8, B9, C1, C3, C5,
	// C9) that exhibit retention bit flips at the nominal 64 ms refresh
	// window when operated at VPPmin.
	RetentionFails64ms bool
}

// Chips returns the number of DRAM chips on the module.
func (p ModuleProfile) Chips() int { return p.Org.ChipsPerDIMM() }

// profiles is the full Table 3 dataset. HCfirst values are in units of
// activations (the table's "K" values times 1000).
var profiles = []ModuleProfile{
	// ------------------------------ Mfr. A (Micron) ------------------------------
	{Name: "A0", Mfr: MfrA, Model: "MTA18ASF2G72PZ-2G3B1QK", DensityGb: 8, FreqMTs: 2400, Org: OrgX4, DieRev: "B", MfgDate: "11-19",
		Nominal: OperatingPoint{39_800, 1.24e-3}, VPPMin: 1.4, AtVPPMin: OperatingPoint{42_200, 1.00e-3},
		VPPRec: 1.4, AtVPPRec: OperatingPoint{42_200, 1.00e-3}, TRCDFailsNominal: true, TRCDFixNS: 24},
	{Name: "A1", Mfr: MfrA, Model: "MTA18ASF2G72PZ-2G3B1QK", DensityGb: 8, FreqMTs: 2400, Org: OrgX4, DieRev: "B", MfgDate: "11-19",
		Nominal: OperatingPoint{42_200, 9.90e-4}, VPPMin: 1.4, AtVPPMin: OperatingPoint{46_400, 7.83e-4},
		VPPRec: 1.4, AtVPPRec: OperatingPoint{46_400, 7.83e-4}, TRCDFailsNominal: true, TRCDFixNS: 24},
	{Name: "A2", Mfr: MfrA, Model: "MTA18ASF2G72PZ-2G3B1QK", DensityGb: 8, FreqMTs: 2400, Org: OrgX4, DieRev: "B", MfgDate: "11-19",
		Nominal: OperatingPoint{41_000, 1.24e-3}, VPPMin: 1.7, AtVPPMin: OperatingPoint{39_800, 1.35e-3},
		VPPRec: 2.1, AtVPPRec: OperatingPoint{42_100, 1.55e-3}, TRCDFailsNominal: true, TRCDFixNS: 24},
	{Name: "A3", Mfr: MfrA, Model: "CT4G4DFS8266.C8FF", DensityGb: 4, FreqMTs: 2666, Org: OrgX8, DieRev: "F", MfgDate: "07-21",
		Nominal: OperatingPoint{16_700, 3.33e-2}, VPPMin: 1.4, AtVPPMin: OperatingPoint{16_500, 3.52e-2},
		VPPRec: 1.7, AtVPPRec: OperatingPoint{17_000, 3.48e-2}},
	{Name: "A4", Mfr: MfrA, Model: "CT4G4DFS8266.C8FF", DensityGb: 4, FreqMTs: 2666, Org: OrgX8, DieRev: "F", MfgDate: "07-21",
		Nominal: OperatingPoint{14_400, 3.18e-2}, VPPMin: 1.5, AtVPPMin: OperatingPoint{14_400, 3.33e-2},
		VPPRec: 2.5, AtVPPRec: OperatingPoint{14_400, 3.18e-2}},
	{Name: "A5", Mfr: MfrA, Model: "CT4G4SFS8213.C8FBD1", DensityGb: 4, FreqMTs: 2400, Org: OrgX8, DieRev: "-", MfgDate: "48-16",
		Nominal: OperatingPoint{140_700, 1.39e-6}, VPPMin: 2.4, AtVPPMin: OperatingPoint{145_400, 3.39e-6},
		VPPRec: 2.4, AtVPPRec: OperatingPoint{145_400, 3.39e-6}},
	{Name: "A6", Mfr: MfrA, Model: "CT4G4DFS8266.C8FF", DensityGb: 4, FreqMTs: 2666, Org: OrgX8, DieRev: "F", MfgDate: "07-21",
		Nominal: OperatingPoint{16_500, 3.50e-2}, VPPMin: 1.5, AtVPPMin: OperatingPoint{16_500, 3.66e-2},
		VPPRec: 2.5, AtVPPRec: OperatingPoint{16_500, 3.50e-2}},
	{Name: "A7", Mfr: MfrA, Model: "CMV4GX4M1A2133C15", DensityGb: 4, FreqMTs: 2133, Org: OrgX8, DieRev: "-", MfgDate: "-",
		Nominal: OperatingPoint{16_500, 3.42e-2}, VPPMin: 1.8, AtVPPMin: OperatingPoint{16_500, 3.52e-2},
		VPPRec: 2.5, AtVPPRec: OperatingPoint{16_500, 3.42e-2}},
	{Name: "A8", Mfr: MfrA, Model: "MTA18ASF2G72PZ-2G3B1QG", DensityGb: 8, FreqMTs: 2400, Org: OrgX4, DieRev: "B", MfgDate: "11-19",
		Nominal: OperatingPoint{35_200, 2.38e-3}, VPPMin: 1.4, AtVPPMin: OperatingPoint{39_800, 2.07e-3},
		VPPRec: 1.4, AtVPPRec: OperatingPoint{39_800, 2.07e-3}},
	{Name: "A9", Mfr: MfrA, Model: "CMV4GX4M1A2133C15", DensityGb: 4, FreqMTs: 2133, Org: OrgX8, DieRev: "-", MfgDate: "-",
		Nominal: OperatingPoint{14_300, 3.33e-2}, VPPMin: 1.5, AtVPPMin: OperatingPoint{14_300, 3.48e-2},
		VPPRec: 1.6, AtVPPRec: OperatingPoint{14_600, 3.47e-2}},

	// ------------------------------ Mfr. B (Samsung) ------------------------------
	{Name: "B0", Mfr: MfrB, Model: "M378A1K43DB2-CTD", DensityGb: 8, FreqMTs: 2666, Org: OrgX8, DieRev: "D", MfgDate: "10-21",
		Nominal: OperatingPoint{7_900, 1.18e-1}, VPPMin: 2.0, AtVPPMin: OperatingPoint{7_600, 1.22e-1},
		VPPRec: 2.5, AtVPPRec: OperatingPoint{7_900, 1.18e-1}},
	{Name: "B1", Mfr: MfrB, Model: "M378A1K43DB2-CTD", DensityGb: 8, FreqMTs: 2666, Org: OrgX8, DieRev: "D", MfgDate: "10-21",
		Nominal: OperatingPoint{7_300, 1.26e-1}, VPPMin: 2.0, AtVPPMin: OperatingPoint{7_600, 1.28e-1},
		VPPRec: 2.0, AtVPPRec: OperatingPoint{7_600, 1.28e-1}},
	{Name: "B2", Mfr: MfrB, Model: "F4-2400C17S-8GNT", DensityGb: 4, FreqMTs: 2400, Org: OrgX8, DieRev: "F", MfgDate: "02-21",
		Nominal: OperatingPoint{11_200, 2.52e-2}, VPPMin: 1.6, AtVPPMin: OperatingPoint{12_000, 2.22e-2},
		VPPRec: 1.6, AtVPPRec: OperatingPoint{12_000, 2.22e-2}, TRCDFailsNominal: true, TRCDFixNS: 15},
	{Name: "B3", Mfr: MfrB, Model: "M393A1K43BB1-CTD6Y", DensityGb: 8, FreqMTs: 2666, Org: OrgX8, DieRev: "B", MfgDate: "52-20",
		Nominal: OperatingPoint{16_600, 2.73e-3}, VPPMin: 1.6, AtVPPMin: OperatingPoint{21_100, 1.09e-3},
		VPPRec: 1.6, AtVPPRec: OperatingPoint{21_100, 1.09e-3}},
	{Name: "B4", Mfr: MfrB, Model: "M393A1K43BB1-CTD6Y", DensityGb: 8, FreqMTs: 2666, Org: OrgX8, DieRev: "B", MfgDate: "52-20",
		Nominal: OperatingPoint{21_000, 2.95e-3}, VPPMin: 1.8, AtVPPMin: OperatingPoint{19_900, 2.52e-3},
		VPPRec: 2.0, AtVPPRec: OperatingPoint{21_100, 2.68e-3}},
	{Name: "B5", Mfr: MfrB, Model: "M471A5143EB0-CPB", DensityGb: 4, FreqMTs: 2133, Org: OrgX8, DieRev: "E", MfgDate: "08-17",
		Nominal: OperatingPoint{21_000, 7.78e-3}, VPPMin: 1.8, AtVPPMin: OperatingPoint{21_000, 6.02e-3},
		VPPRec: 2.0, AtVPPRec: OperatingPoint{21_100, 8.67e-3}, TRCDFailsNominal: true, TRCDFixNS: 15},
	{Name: "B6", Mfr: MfrB, Model: "CMK16GX4M2B3200C16", DensityGb: 8, FreqMTs: 3200, Org: OrgX8, DieRev: "-", MfgDate: "-",
		Nominal: OperatingPoint{10_300, 1.14e-2}, VPPMin: 1.7, AtVPPMin: OperatingPoint{10_500, 9.82e-3},
		VPPRec: 1.7, AtVPPRec: OperatingPoint{10_500, 9.82e-3}, RetentionFails64ms: true},
	{Name: "B7", Mfr: MfrB, Model: "M378A1K43DB2-CTD", DensityGb: 8, FreqMTs: 2666, Org: OrgX8, DieRev: "D", MfgDate: "10-21",
		Nominal: OperatingPoint{7_300, 1.32e-1}, VPPMin: 2.0, AtVPPMin: OperatingPoint{7_600, 1.33e-1},
		VPPRec: 2.0, AtVPPRec: OperatingPoint{7_600, 1.33e-1}},
	{Name: "B8", Mfr: MfrB, Model: "CMK16GX4M2B3200C16", DensityGb: 8, FreqMTs: 3200, Org: OrgX8, DieRev: "-", MfgDate: "-",
		Nominal: OperatingPoint{11_600, 2.88e-2}, VPPMin: 1.7, AtVPPMin: OperatingPoint{10_500, 2.37e-2},
		VPPRec: 1.8, AtVPPRec: OperatingPoint{11_700, 2.58e-2}, RetentionFails64ms: true},
	{Name: "B9", Mfr: MfrB, Model: "M471A5244CB0-CRC", DensityGb: 8, FreqMTs: 2133, Org: OrgX8, DieRev: "C", MfgDate: "19-19",
		Nominal: OperatingPoint{11_800, 2.68e-2}, VPPMin: 1.7, AtVPPMin: OperatingPoint{8_800, 2.39e-2},
		VPPRec: 1.8, AtVPPRec: OperatingPoint{12_300, 2.54e-2}, RetentionFails64ms: true},

	// ------------------------------ Mfr. C (SK Hynix) ------------------------------
	{Name: "C0", Mfr: MfrC, Model: "F4-2400C17S-8GNT", DensityGb: 4, FreqMTs: 2400, Org: OrgX8, DieRev: "B", MfgDate: "02-21",
		Nominal: OperatingPoint{19_300, 7.29e-3}, VPPMin: 1.7, AtVPPMin: OperatingPoint{23_400, 6.61e-3},
		VPPRec: 1.7, AtVPPRec: OperatingPoint{23_400, 6.61e-3}},
	{Name: "C1", Mfr: MfrC, Model: "F4-2400C17S-8GNT", DensityGb: 4, FreqMTs: 2400, Org: OrgX8, DieRev: "B", MfgDate: "02-21",
		Nominal: OperatingPoint{19_300, 6.31e-3}, VPPMin: 1.7, AtVPPMin: OperatingPoint{20_600, 5.90e-3},
		VPPRec: 1.7, AtVPPRec: OperatingPoint{20_600, 5.90e-3}, RetentionFails64ms: true},
	{Name: "C2", Mfr: MfrC, Model: "KSM32RD8/16HDR", DensityGb: 8, FreqMTs: 3200, Org: OrgX8, DieRev: "D", MfgDate: "48-20",
		Nominal: OperatingPoint{9_600, 2.82e-2}, VPPMin: 1.5, AtVPPMin: OperatingPoint{9_200, 2.34e-2},
		VPPRec: 2.3, AtVPPRec: OperatingPoint{10_000, 2.89e-2}},
	{Name: "C3", Mfr: MfrC, Model: "KSM32RD8/16HDR", DensityGb: 8, FreqMTs: 3200, Org: OrgX8, DieRev: "D", MfgDate: "48-20",
		Nominal: OperatingPoint{9_300, 2.57e-2}, VPPMin: 1.5, AtVPPMin: OperatingPoint{8_900, 2.21e-2},
		VPPRec: 2.3, AtVPPRec: OperatingPoint{9_700, 2.66e-2}, RetentionFails64ms: true},
	{Name: "C4", Mfr: MfrC, Model: "HMAA4GU6AJR8N-XN", DensityGb: 16, FreqMTs: 3200, Org: OrgX8, DieRev: "A", MfgDate: "51-20",
		Nominal: OperatingPoint{11_600, 3.22e-2}, VPPMin: 1.5, AtVPPMin: OperatingPoint{11_700, 2.88e-2},
		VPPRec: 1.5, AtVPPRec: OperatingPoint{11_700, 2.88e-2}},
	{Name: "C5", Mfr: MfrC, Model: "HMAA4GU6AJR8N-XN", DensityGb: 16, FreqMTs: 3200, Org: OrgX8, DieRev: "A", MfgDate: "51-20",
		Nominal: OperatingPoint{9_400, 3.28e-2}, VPPMin: 1.5, AtVPPMin: OperatingPoint{12_700, 2.85e-2},
		VPPRec: 1.5, AtVPPRec: OperatingPoint{12_700, 2.85e-2}, RetentionFails64ms: true},
	{Name: "C6", Mfr: MfrC, Model: "CMV4GX4M1A2133C15", DensityGb: 4, FreqMTs: 2133, Org: OrgX8, DieRev: "C", MfgDate: "-",
		Nominal: OperatingPoint{14_200, 3.08e-2}, VPPMin: 1.6, AtVPPMin: OperatingPoint{15_500, 2.25e-2},
		VPPRec: 1.6, AtVPPRec: OperatingPoint{15_500, 2.25e-2}},
	{Name: "C7", Mfr: MfrC, Model: "CMV4GX4M1A2133C15", DensityGb: 4, FreqMTs: 2133, Org: OrgX8, DieRev: "C", MfgDate: "-",
		Nominal: OperatingPoint{11_700, 3.24e-2}, VPPMin: 1.6, AtVPPMin: OperatingPoint{13_600, 2.60e-2},
		VPPRec: 1.6, AtVPPRec: OperatingPoint{13_600, 2.60e-2}},
	{Name: "C8", Mfr: MfrC, Model: "KSM32RD8/16HDR", DensityGb: 8, FreqMTs: 3200, Org: OrgX8, DieRev: "D", MfgDate: "48-20",
		Nominal: OperatingPoint{11_400, 2.69e-2}, VPPMin: 1.6, AtVPPMin: OperatingPoint{9_500, 2.57e-2},
		VPPRec: 2.5, AtVPPRec: OperatingPoint{11_400, 2.69e-2}},
	{Name: "C9", Mfr: MfrC, Model: "F4-2400C17S-8GNT", DensityGb: 4, FreqMTs: 2400, Org: OrgX8, DieRev: "B", MfgDate: "02-21",
		Nominal: OperatingPoint{12_600, 2.18e-2}, VPPMin: 1.7, AtVPPMin: OperatingPoint{15_200, 1.63e-2},
		VPPRec: 1.7, AtVPPRec: OperatingPoint{15_200, 1.63e-2}, RetentionFails64ms: true},
}

// Profiles returns the full set of 30 tested DIMM profiles (Table 3). The
// returned slice is a fresh copy; callers may reorder or mutate it freely.
func Profiles() []ModuleProfile {
	out := make([]ModuleProfile, len(profiles))
	copy(out, profiles)
	return out
}

// ProfileByName returns the profile with the given Table 3 label (e.g. "B3")
// and whether it exists.
func ProfileByName(name string) (ModuleProfile, bool) {
	for _, p := range profiles {
		if p.Name == name {
			return p, true
		}
	}
	return ModuleProfile{}, false
}

// ProfilesByMfr returns the profiles belonging to one manufacturer, in
// Table 3 order.
func ProfilesByMfr(m Manufacturer) []ModuleProfile {
	var out []ModuleProfile
	for _, p := range profiles {
		if p.Mfr == m {
			out = append(out, p)
		}
	}
	return out
}

// TotalChips returns the total number of DRAM chips across all profiles
// (the paper's 272).
func TotalChips() int {
	n := 0
	for _, p := range profiles {
		n += p.Chips()
	}
	return n
}

// VPPLevels returns the descending sweep of VPP setpoints tested for a
// module: nominal 2.5 V down to the module's VPPmin in 0.1 V steps, matching
// the paper's experimental procedure (§4.1).
func (p ModuleProfile) VPPLevels() []float64 {
	var out []float64
	for v := VPPNominal; v > p.VPPMin-1e-9; v -= VPPSweepStep {
		// Re-round to the supply's millivolt precision to avoid float drift.
		out = append(out, roundMilli(v))
	}
	return out
}

func roundMilli(v float64) float64 {
	return float64(int(v*1000+0.5)) / 1000
}
