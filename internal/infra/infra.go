// Package infra models the physical testing infrastructure around the DRAM
// module (paper §4.1 and Fig. 2): the Adexelec interposer with its removable
// VPP shunt resistor, the external TTi PL068-P programmable power supply
// (±1 mV setpoint precision), the heater pads with the MaxWell FT200 PID
// temperature controller (±0.1 °C regulation), and the VPPmin discovery
// procedure (lower VPP in 0.1 V steps until the module stops communicating).
package infra

import (
	"errors"
	"fmt"
	"math"

	"github.com/dramstudy/rhvpp/internal/dram"
	"github.com/dramstudy/rhvpp/internal/mapping"
	"github.com/dramstudy/rhvpp/internal/physics"
	"github.com/dramstudy/rhvpp/internal/softmc"
)

// Infrastructure errors.
var (
	// ErrShuntInstalled indicates the interposer still routes VPP from the
	// FPGA; the external supply cannot drive the rail until the shunt
	// resistor is removed (§4.1).
	ErrShuntInstalled = errors.New("infra: VPP shunt resistor still installed")
	// ErrVoltageRange is returned for supply setpoints outside the safe
	// operating range.
	ErrVoltageRange = errors.New("infra: voltage setpoint out of range")
	// ErrNoModule is returned when instruments are used before wiring.
	ErrNoModule = errors.New("infra: no module attached")
)

// PowerSupply models the external programmable VPP source. Setpoints are
// quantized to the instrument's 1 mV resolution.
type PowerSupply struct {
	mod      *dram.Module
	setpoint float64
	enabled  bool
}

// Attach wires the supply output to a module's VPP rail.
func (ps *PowerSupply) Attach(mod *dram.Module) {
	ps.mod = mod
	ps.setpoint = physics.VPPNominal
}

// The supply's accepted setpoint range in volts.
const (
	SupplyMinV = 0.5
	SupplyMaxV = 3.0
)

// SetVoltage programs the output voltage in volts. The supply refuses
// setpoints outside [SupplyMinV, SupplyMaxV] to protect the device under
// test.
func (ps *PowerSupply) SetVoltage(v float64) error {
	if ps.mod == nil {
		return ErrNoModule
	}
	if !ps.enabled {
		return ErrShuntInstalled
	}
	if v < SupplyMinV || v > SupplyMaxV {
		return fmt.Errorf("%w: %.3fV", ErrVoltageRange, v)
	}
	ps.setpoint = math.Round(v*1000) / 1000
	ps.mod.SetVPP(ps.setpoint)
	return nil
}

// Voltage returns the programmed setpoint.
func (ps *PowerSupply) Voltage() float64 { return ps.setpoint }

// enable marks the rail as externally driven (shunt removed).
func (ps *PowerSupply) enable() { ps.enabled = true }

// ReadCurrentMA returns a simple VPP-rail current estimate in milliamps
// (wordline pump load grows mildly with voltage). The interposer's shunt
// position is where the paper measures current.
func (ps *PowerSupply) ReadCurrentMA() float64 {
	if ps.mod == nil || !ps.mod.Responds() {
		return 0
	}
	v := ps.mod.VPP()
	return 2.0 + 6.5*(v/physics.VPPNominal)*(v/physics.VPPNominal)
}

// Interposer models the Adexelec DDR4 riser with current-measurement shunt
// on the VPP rail. Removing the shunt disconnects the FPGA's VPP from the
// module so the external supply can drive it (§4.1).
type Interposer struct {
	shuntRemoved bool
}

// RemoveShunt electrically disconnects the FPGA-side VPP rail.
func (ip *Interposer) RemoveShunt() { ip.shuntRemoved = true }

// ShuntRemoved reports whether the rail is ready for external supply.
func (ip *Interposer) ShuntRemoved() bool { return ip.shuntRemoved }

// TempController models the PID-regulated heater-pad loop keeping the DRAM
// chips at a programmed temperature with ±0.1 °C precision.
type TempController struct {
	mod    *dram.Module
	target float64
	temp   float64 // current die temperature
	kp     float64
	ki     float64
	kd     float64
	integ  float64
	prev   float64
}

// NewTempController builds the PID loop with gains tuned for the simulated
// first-order thermal plant.
func NewTempController(mod *dram.Module) *TempController {
	return &TempController{
		mod: mod, temp: 35, target: 35,
		kp: 0.9, ki: 0.25, kd: 0.08,
	}
}

// SetTarget programs the regulation setpoint in Celsius.
func (tc *TempController) SetTarget(c float64) {
	tc.target = c
	tc.integ = 0
}

// Temperature returns the current regulated die temperature.
func (tc *TempController) Temperature() float64 { return tc.temp }

// Step advances the thermal plant by dt seconds: the PID output drives the
// heater power against first-order losses to ambient.
func (tc *TempController) Step(dt float64) {
	const (
		ambient  = 25.0
		lossRate = 0.05 // 1/s toward ambient
		heatGain = 1.2  // degC/s per unit drive
	)
	err := tc.target - tc.temp
	tc.integ += err * dt
	tc.integ = math.Max(-40, math.Min(40, tc.integ))
	deriv := (err - tc.prev) / math.Max(dt, 1e-9)
	tc.prev = err
	drive := tc.kp*err + tc.ki*tc.integ + tc.kd*deriv
	drive = math.Max(0, math.Min(10, drive)) // heater only heats
	tc.temp += (heatGain*drive - lossRate*(tc.temp-ambient)) * dt
	if tc.mod != nil {
		tc.mod.SetTemperature(tc.temp)
	}
}

// Settle runs the loop until the temperature stays within ±0.1 °C of the
// target (the FT200's regulation precision) for one full second, or the
// step budget runs out. It reports whether regulation converged.
func (tc *TempController) Settle(maxSeconds float64) bool {
	const dt = 0.1
	stable := 0.0
	for t := 0.0; t < maxSeconds; t += dt {
		tc.Step(dt)
		if math.Abs(tc.temp-tc.target) <= 0.1 {
			stable += dt
			if stable >= 1.0 {
				return true
			}
		} else {
			stable = 0
		}
	}
	return false
}

// Testbed assembles the full experimental setup of Fig. 2: module on the
// interposer, SoftMC controller, external VPP supply, and thermal loop.
type Testbed struct {
	Module     *dram.Module
	Controller *softmc.Controller
	Supply     *PowerSupply
	Interposer *Interposer
	Thermal    *TempController
}

// NewTestbed wires up a testbed for one module profile. The shunt is removed
// and the supply attached at the nominal 2.5 V, ready for voltage sweeps,
// and the thermal loop is settled at the RowHammer test temperature (50 °C).
func NewTestbed(prof physics.ModuleProfile, geom physics.Geometry, seed uint64, opts ...dram.Option) *Testbed {
	mod := dram.NewModule(prof, geom, seed, opts...)
	tb := &Testbed{
		Module:     mod,
		Controller: softmc.New(mod),
		Supply:     &PowerSupply{},
		Interposer: &Interposer{},
		Thermal:    NewTempController(mod),
	}
	tb.Interposer.RemoveShunt()
	tb.Supply.Attach(mod)
	tb.Supply.enable()
	tb.Thermal.SetTarget(physics.RowHammerTestTempC)
	tb.Thermal.Settle(600)
	return tb
}

// SetVPP programs the supply (and thereby the module's rail).
func (tb *Testbed) SetVPP(v float64) error { return tb.Supply.SetVoltage(v) }

// SetTemperature retargets and settles the thermal loop.
func (tb *Testbed) SetTemperature(c float64) error {
	tb.Thermal.SetTarget(c)
	if !tb.Thermal.Settle(1200) {
		return fmt.Errorf("infra: thermal loop did not settle at %.1fC", c)
	}
	return nil
}

// DiscoverVPPmin lowers VPP from nominal in 0.1 V steps until the module
// stops communicating, then returns the lowest voltage at which it still
// responded (§4.1). The supply is left at that voltage.
func (tb *Testbed) DiscoverVPPmin() (float64, error) {
	lowest := math.NaN()
	for v := physics.VPPNominal; v >= 0.5; v -= physics.VPPSweepStep {
		v = math.Round(v*1000) / 1000
		if err := tb.Supply.SetVoltage(v); err != nil {
			return lowest, err
		}
		if err := tb.Controller.Ping(); err != nil {
			if errors.Is(err, dram.ErrNoComm) {
				break
			}
			return lowest, err
		}
		lowest = v
	}
	if math.IsNaN(lowest) {
		return 0, errors.New("infra: module never responded")
	}
	if err := tb.Supply.SetVoltage(lowest); err != nil {
		return lowest, err
	}
	return lowest, nil
}

// ReverseEngineerAdjacency probes physical adjacency for a window of rows
// using single-sided hammering at the given count (several times the
// module's HCfirst divided by the single-sided weight).
func (tb *Testbed) ReverseEngineerAdjacency(window []int, count int) (mapping.AdjacencyMap, error) {
	return mapping.ReverseEngineer(tb.Controller, window, count)
}
