// Package dram models the main-memory backend of Table IV: DDR3-1600
// with 9-9-9 sub-timings, a closed-page FCFS controller, four memory
// controllers per chip/buffer, and a 64-bit 1.6 GHz data bus
// (12.8 GB/s per channel).
package dram

import "fmt"

// Config describes one DRAM channel.
type Config struct {
	// BusWidthBits is the data bus width (64).
	BusWidthBits int
	// BusFreqHz is the effective transfer rate (1.6 GT/s).
	BusFreqHz float64
	// TRCDNs, TCASNs, TRPNs are the 9-9-9 sub-timings in nanoseconds
	// (9 cycles at the 800 MHz command clock = 11.25 ns each).
	TRCDNs, TCASNs, TRPNs float64
	// Banks per channel; bank-level parallelism hides precharge.
	Banks int
}

// DefaultConfig returns the Table IV DDR3-1600 9-9-9 channel.
func DefaultConfig() Config {
	const cmdClk = 800e6 // DDR3-1600 command clock
	cyc := 1 / cmdClk * 1e9
	return Config{
		BusWidthBits: 64,
		BusFreqHz:    1.6e9,
		TRCDNs:       9 * cyc,
		TCASNs:       9 * cyc,
		TRPNs:        9 * cyc,
		Banks:        8,
	}
}

// BytesPerSec is the channel's raw data bandwidth.
func (c Config) BytesPerSec() float64 { return c.BusFreqHz * float64(c.BusWidthBits) / 8 }

// Channel is a closed-page FCFS DRAM channel: every access pays
// activate (tRCD) + CAS (tCAS) + burst, and its bank is then busy
// through precharge (tRP). Requests serialize on the shared data bus
// and on their bank.
type Channel struct {
	cfg      Config
	bankFree []float64 // seconds
	busFree  float64

	// Stats
	Accesses uint64
	BusyBus  float64
}

// NewChannel builds a channel; it panics on a non-positive geometry.
func NewChannel(cfg Config) *Channel {
	if cfg.Banks <= 0 || cfg.BusWidthBits <= 0 || cfg.BusFreqHz <= 0 {
		panic(fmt.Sprintf("dram: invalid config %+v", cfg))
	}
	return &Channel{cfg: cfg, bankFree: make([]float64, cfg.Banks)}
}

// Config returns the channel configuration.
func (c *Channel) Config() Config { return c.cfg }

// burst returns the data-transfer time of nbytes.
func (c *Channel) burst(nbytes int) float64 {
	return float64(nbytes*8) / (c.cfg.BusFreqHz * float64(c.cfg.BusWidthBits))
}

// Access schedules a closed-page read/write of nbytes to lineAddr at
// time now and returns the completion time (data available).
func (c *Channel) Access(now float64, lineAddr uint64, nbytes int) float64 {
	c.Accesses++
	bank := int(lineAddr) % c.cfg.Banks
	// Row activate can start once the bank is ready.
	start := now
	if c.bankFree[bank] > start {
		start = c.bankFree[bank]
	}
	ready := start + c.cfg.TRCDNs*1e-9 + c.cfg.TCASNs*1e-9
	// The burst needs the shared data bus.
	if c.busFree > ready {
		ready = c.busFree
	}
	done := ready + c.burst(nbytes)
	c.busFree = done
	c.BusyBus += c.burst(nbytes)
	// Closed page: auto-precharge after the burst.
	c.bankFree[bank] = done + c.cfg.TRPNs*1e-9
	return done
}
