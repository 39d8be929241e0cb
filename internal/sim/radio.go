package sim

// RadioParams models the physical layer with the parameters of the paper's
// Table 1. Energy is accounted per §5.3: each transmission costs the
// sender's transmission power for the message airtime, plus the receiving
// power of every listening node within the sender's radio range for the same
// airtime.
type RadioParams struct {
	// DataRateBps is the channel data rate (Table 1: 1 Mbps).
	DataRateBps float64
	// MessageBytes is the multicast message size (Table 1: 128 B).
	MessageBytes int
	// TxPowerW is the transmission power draw (Table 1: 1.3 W).
	TxPowerW float64
	// RxPowerW is the receive/listen power draw (Table 1: 0.9 W).
	RxPowerW float64
}

// DefaultRadioParams returns the Table 1 configuration.
func DefaultRadioParams() RadioParams {
	return RadioParams{
		DataRateBps:  1e6,
		MessageBytes: 128,
		TxPowerW:     1.3,
		RxPowerW:     0.9,
	}
}

// TxTime returns the airtime of one message in seconds.
func (p RadioParams) TxTime() float64 {
	return float64(p.MessageBytes) * 8 / p.DataRateBps
}

// TxTimeBytes returns the airtime of a frame of the given size in seconds.
func (p RadioParams) TxTimeBytes(frameBytes int) float64 {
	return float64(frameBytes) * 8 / p.DataRateBps
}

// TxEnergy returns the energy in joules consumed by one transmission heard
// by the given number of listeners (the sender's unit-disk degree).
func (p RadioParams) TxEnergy(listeners int) float64 {
	t := p.TxTime()
	return p.TxPowerW*t + p.RxPowerW*t*float64(listeners)
}

// TxEnergyBytes is TxEnergy for an explicit frame size, used when dynamic
// frame sizing is enabled.
func (p RadioParams) TxEnergyBytes(frameBytes, listeners int) float64 {
	t := p.TxTimeBytes(frameBytes)
	return p.TxPowerW*t + p.RxPowerW*t*float64(listeners)
}
