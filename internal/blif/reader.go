package blif

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"fpgadbg/internal/logic"
	"fpgadbg/internal/netlist"
)

// Parse reads a single-model BLIF file into a netlist.
func Parse(r io.Reader) (*netlist.Netlist, error) {
	p := &parser{
		nets: make(map[string]netlist.NetID),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var pending strings.Builder
	lineNo := 0
	flush := func() error {
		line := pending.String()
		pending.Reset()
		return p.handleLine(line)
	}
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		cont := strings.HasSuffix(line, "\\")
		if cont {
			line = strings.TrimSuffix(line, "\\")
		}
		pending.WriteString(line)
		if cont {
			pending.WriteByte(' ')
			continue
		}
		if err := flush(); err != nil {
			return nil, fmt.Errorf("blif: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("blif: %w", err)
	}
	if pending.Len() > 0 {
		if err := flush(); err != nil {
			return nil, fmt.Errorf("blif: line %d: %w", lineNo, err)
		}
	}
	if err := p.finishNames(); err != nil {
		return nil, fmt.Errorf("blif: %w", err)
	}
	if p.nl == nil {
		return nil, fmt.Errorf("blif: no .model found")
	}
	if err := p.nl.Check(); err != nil {
		return nil, fmt.Errorf("blif: parsed netlist invalid: %w", err)
	}
	return p.nl, nil
}

// ParseString parses BLIF text.
// Test fixture: BLIF text in the blif and bench tests.
func ParseString(s string) (*netlist.Netlist, error) {
	return Parse(strings.NewReader(s))
}

type parser struct {
	nl   *netlist.Netlist
	nets map[string]netlist.NetID
	// current .names being accumulated
	namesSignals []string
	namesRows    []string
	inNames      bool
	ended        bool
}

func (p *parser) net(name string) netlist.NetID {
	if id, ok := p.nets[name]; ok {
		return id
	}
	id := p.nl.AddNet(name)
	if got := p.nl.Nets[id].Name; got != name {
		// AddNet disambiguated, which would corrupt lookups; this cannot
		// happen because p.nets mirrors every name we have created.
		panic(fmt.Sprintf("blif: net name collision on %q", name))
	}
	p.nets[name] = id
	return id
}

func (p *parser) handleLine(line string) error {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return nil
	}
	if p.ended {
		return nil // ignore trailing content after .end (multi-model unsupported but tolerated)
	}
	cmd := fields[0]
	if strings.HasPrefix(cmd, ".") {
		if p.inNames && cmd != ".names" {
			if err := p.finishNames(); err != nil {
				return err
			}
		}
		switch cmd {
		case ".model":
			if p.nl != nil {
				return fmt.Errorf("multiple .model declarations (only single-model files are supported)")
			}
			name := "top"
			if len(fields) > 1 {
				name = fields[1]
			}
			p.nl = netlist.New(name)
			return nil
		case ".inputs":
			if p.nl == nil {
				return fmt.Errorf(".inputs before .model")
			}
			for _, f := range fields[1:] {
				if _, dup := p.nets[f]; dup {
					return fmt.Errorf("duplicate signal %q in .inputs", f)
				}
				id := p.nl.AddPI(f)
				p.nets[f] = id
			}
			return nil
		case ".outputs":
			if p.nl == nil {
				return fmt.Errorf(".outputs before .model")
			}
			for _, f := range fields[1:] {
				p.nl.MarkPO(p.net(f))
			}
			return nil
		case ".names":
			if p.nl == nil {
				return fmt.Errorf(".names before .model")
			}
			if err := p.finishNames(); err != nil {
				return err
			}
			if len(fields) < 2 {
				return fmt.Errorf(".names needs at least an output signal")
			}
			p.inNames = true
			p.namesSignals = append([]string(nil), fields[1:]...)
			p.namesRows = nil
			return nil
		case ".latch":
			if p.nl == nil {
				return fmt.Errorf(".latch before .model")
			}
			return p.handleLatch(fields[1:])
		case ".end":
			if err := p.finishNames(); err != nil {
				return err
			}
			p.ended = true
			return nil
		case ".exdc":
			return fmt.Errorf(".exdc (external don't-cares) is not supported")
		default:
			// Unknown dot-commands (.clock, .default_input_arrival, ...) are
			// ignored, matching common BLIF reader behaviour.
			return nil
		}
	}
	if p.inNames {
		p.namesRows = append(p.namesRows, fields...)
		return nil
	}
	return fmt.Errorf("unexpected token %q outside .names", fields[0])
}

// handleLatch parses ".latch input output [type ctrl] [init]".
func (p *parser) handleLatch(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf(".latch needs input and output")
	}
	in := p.net(args[0])
	out := p.net(args[1])
	initVal := uint8(0)
	rest := args[2:]
	// Optional "type control" pair (e.g. "re clk").
	if len(rest) >= 2 && !isInitToken(rest[0]) {
		rest = rest[2:]
	}
	if len(rest) > 1 {
		return fmt.Errorf(".latch has trailing tokens %v", rest)
	}
	if len(rest) == 1 {
		switch rest[0] {
		case "0":
			initVal = 0
		case "1":
			initVal = 1
		case "2", "3":
			// don't-care / unknown initial value; pick 0 deterministically
			initVal = 0
		default:
			return fmt.Errorf(".latch has invalid init %q", rest[0])
		}
	}
	_, err := p.nl.AddDFF(fmt.Sprintf("latch_%s", args[1]), in, out, initVal)
	return err
}

func isInitToken(s string) bool {
	return s == "0" || s == "1" || s == "2" || s == "3"
}

// finishNames materializes an accumulated .names block as a LUT.
func (p *parser) finishNames() error {
	if !p.inNames {
		return nil
	}
	p.inNames = false
	sigs := p.namesSignals
	rows := p.namesRows
	p.namesSignals, p.namesRows = nil, nil

	outName := sigs[len(sigs)-1]
	inNames := sigs[:len(sigs)-1]
	nIn := len(inNames)
	if nIn > logic.MaxVars {
		return fmt.Errorf(".names %s has %d inputs (max %d)", outName, nIn, logic.MaxVars)
	}

	onRows := make([]string, 0, len(rows)/2)
	offRows := make([]string, 0)
	// rows come in (inputPlane, outputBit) pairs, except for zero-input
	// constants where each row is just the output bit.
	if nIn == 0 {
		val := false
		for _, rrow := range rows {
			switch rrow {
			case "1":
				val = true
			case "0":
				val = false
			default:
				return fmt.Errorf(".names %s: invalid constant row %q", outName, rrow)
			}
		}
		_, err := p.nl.AddConst("const_"+outName, val, p.net(outName))
		return err
	}
	if len(rows)%2 != 0 {
		return fmt.Errorf(".names %s: odd token count in cover", outName)
	}
	for i := 0; i < len(rows); i += 2 {
		plane, bit := rows[i], rows[i+1]
		if len(plane) != nIn {
			return fmt.Errorf(".names %s: row %q width %d != %d inputs", outName, plane, len(plane), nIn)
		}
		switch bit {
		case "1":
			onRows = append(onRows, plane)
		case "0":
			offRows = append(offRows, plane)
		default:
			return fmt.Errorf(".names %s: invalid output bit %q", outName, bit)
		}
	}
	if len(onRows) > 0 && len(offRows) > 0 {
		return fmt.Errorf(".names %s mixes output phases", outName)
	}

	var cover logic.Cover
	switch {
	case len(onRows) > 0:
		c, err := logic.FromStrings(onRows...)
		if err != nil {
			return fmt.Errorf(".names %s: %w", outName, err)
		}
		cover = c
	case len(offRows) > 0:
		// Off-set specification: the function is the complement of the
		// listed cover. Complementation goes through a truth table, so the
		// node must fit in TTMaxVars inputs.
		c, err := logic.FromStrings(offRows...)
		if err != nil {
			return fmt.Errorf(".names %s: %w", outName, err)
		}
		nc, err := c.Not()
		if err != nil {
			return fmt.Errorf(".names %s (off-set phase): %w", outName, err)
		}
		cover = nc
	default:
		// Empty cover: constant 0.
		cover = logic.Const(nIn, false)
	}

	fanin := make([]netlist.NetID, nIn)
	for i, name := range inNames {
		fanin[i] = p.net(name)
	}
	_, err := p.nl.AddLUT("n_"+outName, cover, fanin, p.net(outName))
	return err
}
