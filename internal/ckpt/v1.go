// The version-1 record layout: one TLV field stream with a CRC-32
// trailer over the whole record, process state nested in sections.
// Nothing writes it any more; these readers keep images checkpointed in
// it restorable.
//
// Version-1 full image field order:
//
//	tagPodName tagVIP tagVTime tagNet{...}
//	tagProc{vpid kind progData tagRegion{name data}* tagFD{fd slot}*}*
//
// Version-1 delta record field order:
//
//	dtagPodName dtagVIP dtagVTime dtagSeq dtagParentSum dtagNet{...}
//	dtagProc{vpid kind new progChanged progData? dtagRegion{...}*
//	         removedRegion* dtagFD{...}*}*
//	dtagRemovedProc*
package ckpt

import (
	"errors"

	"zapc/internal/imgfmt"
	"zapc/internal/netckpt"
	"zapc/internal/netstack"
	"zapc/internal/sim"
	"zapc/internal/vos"
)

// Version-1 pod image field tags.
const (
	tagPodName = 1
	tagVIP     = 2
	tagVTime   = 3
	tagNet     = 4
	tagProc    = 5

	tagVPID     = 1
	tagKind     = 2
	tagProgData = 3
	tagRegion   = 4
	tagFD       = 5

	tagRegName = 1
	tagRegData = 2

	tagFDNum  = 1
	tagFDSlot = 2
)

// Version-1 delta record field tags (root).
const (
	dtagPodName     = 1
	dtagVIP         = 2
	dtagVTime       = 3
	dtagSeq         = 4
	dtagParentSum   = 5
	dtagNet         = 6
	dtagProc        = 7
	dtagRemovedProc = 8
)

// Version-1 ProcDelta field tags.
const (
	dtagVPID          = 1
	dtagKind          = 2
	dtagNew           = 3
	dtagProgChanged   = 4
	dtagProgData      = 5
	dtagRegion        = 6
	dtagRemovedRegion = 7
	dtagFD            = 8
)

// decodeImageV1 parses a version-1 pod image, checking its CRC trailer
// before any field.
func decodeImageV1(data []byte) (*Image, error) {
	d, err := imgfmt.NewDecoder(data)
	if err != nil {
		return nil, err
	}
	img := &Image{}
	if img.PodName, err = d.String(tagPodName); err != nil {
		return nil, err
	}
	vip, err := d.Uint(tagVIP)
	if err != nil {
		return nil, err
	}
	img.VIP = netstack.IP(vip)
	vt, err := d.Int(tagVTime)
	if err != nil {
		return nil, err
	}
	img.VirtualTime = sim.Time(vt)
	netSec, err := d.Section(tagNet)
	if err != nil {
		return nil, err
	}
	if img.Net, err = netckpt.DecodeImage(netSec); err != nil {
		return nil, err
	}
	for d.More() {
		tag, _, err := d.Peek()
		if err != nil {
			return nil, err
		}
		if tag != tagProc {
			if err := d.Skip(); err != nil {
				return nil, err
			}
			continue
		}
		sec, err := d.Section(tagProc)
		if err != nil {
			return nil, err
		}
		p, err := decodeProc(sec)
		if err != nil {
			return nil, err
		}
		img.Procs = append(img.Procs, p)
	}
	return img, nil
}

func decodeProc(d *imgfmt.Decoder) (ProcImage, error) {
	var p ProcImage
	vpid, err := d.Int(tagVPID)
	if err != nil {
		return p, err
	}
	p.VPID = vos.PID(vpid)
	if p.Kind, err = d.String(tagKind); err != nil {
		return p, err
	}
	pd, err := d.Bytes(tagProgData)
	if err != nil {
		return p, err
	}
	p.ProgData = append([]byte(nil), pd...)
	for d.More() {
		tag, _, err := d.Peek()
		if err != nil {
			return p, err
		}
		switch tag {
		case tagRegion:
			sec, err := d.Section(tagRegion)
			if err != nil {
				return p, err
			}
			name, e1 := sec.String(tagRegName)
			data, e2 := sec.Bytes(tagRegData)
			if err := errors.Join(e1, e2); err != nil {
				return p, err
			}
			p.Regions = append(p.Regions, vos.Region{Name: name, Data: append([]byte(nil), data...)})
		case tagFD:
			sec, err := d.Section(tagFD)
			if err != nil {
				return p, err
			}
			fd, e1 := sec.Int(tagFDNum)
			slot, e2 := sec.Int(tagFDSlot)
			if err := errors.Join(e1, e2); err != nil {
				return p, err
			}
			p.FDs = append(p.FDs, FDEntry{FD: int(fd), Slot: int(slot)})
		default:
			if err := d.Skip(); err != nil {
				return p, err
			}
		}
	}
	return p, nil
}

// decodeDeltaV1 parses a version-1 delta record, checking its CRC
// trailer before any field.
func decodeDeltaV1(data []byte) (*DeltaImage, error) {
	dec, err := imgfmt.NewDeltaDecoder(data)
	if err != nil {
		return nil, err
	}
	d := &DeltaImage{}
	if d.PodName, err = dec.String(dtagPodName); err != nil {
		return nil, err
	}
	vip, err := dec.Uint(dtagVIP)
	if err != nil {
		return nil, err
	}
	d.VIP = netstack.IP(vip)
	vt, err := dec.Int(dtagVTime)
	if err != nil {
		return nil, err
	}
	d.VirtualTime = sim.Time(vt)
	if d.Seq, err = dec.Uint(dtagSeq); err != nil {
		return nil, err
	}
	psum, err := dec.Uint(dtagParentSum)
	if err != nil {
		return nil, err
	}
	d.ParentSum = uint32(psum)
	netSec, err := dec.Section(dtagNet)
	if err != nil {
		return nil, err
	}
	if d.Net, err = netckpt.DecodeImage(netSec); err != nil {
		return nil, err
	}
	for dec.More() {
		tag, _, err := dec.Peek()
		if err != nil {
			return nil, err
		}
		switch tag {
		case dtagProc:
			sec, err := dec.Section(dtagProc)
			if err != nil {
				return nil, err
			}
			p, err := decodeProcDelta(sec)
			if err != nil {
				return nil, err
			}
			d.Procs = append(d.Procs, p)
		case dtagRemovedProc:
			v, err := dec.Int(dtagRemovedProc)
			if err != nil {
				return nil, err
			}
			d.RemovedProcs = append(d.RemovedProcs, vos.PID(v))
		default:
			if err := dec.Skip(); err != nil {
				return nil, err
			}
		}
	}
	return d, nil
}

func decodeProcDelta(dec *imgfmt.Decoder) (ProcDelta, error) {
	var p ProcDelta
	vpid, err := dec.Int(dtagVPID)
	if err != nil {
		return p, err
	}
	p.VPID = vos.PID(vpid)
	if p.Kind, err = dec.String(dtagKind); err != nil {
		return p, err
	}
	if p.New, err = dec.Bool(dtagNew); err != nil {
		return p, err
	}
	if p.ProgChanged, err = dec.Bool(dtagProgChanged); err != nil {
		return p, err
	}
	if p.ProgChanged {
		pd, err := dec.Bytes(dtagProgData)
		if err != nil {
			return p, err
		}
		p.ProgData = append([]byte(nil), pd...)
	}
	for dec.More() {
		tag, _, err := dec.Peek()
		if err != nil {
			return p, err
		}
		switch tag {
		case dtagRegion:
			sec, err := dec.Section(dtagRegion)
			if err != nil {
				return p, err
			}
			name, e1 := sec.String(tagRegName)
			data, e2 := sec.Bytes(tagRegData)
			if err := errors.Join(e1, e2); err != nil {
				return p, err
			}
			p.Regions = append(p.Regions, vos.Region{Name: name, Data: append([]byte(nil), data...)})
		case dtagRemovedRegion:
			name, err := dec.String(dtagRemovedRegion)
			if err != nil {
				return p, err
			}
			p.RemovedRegions = append(p.RemovedRegions, name)
		case dtagFD:
			sec, err := dec.Section(dtagFD)
			if err != nil {
				return p, err
			}
			fd, e1 := sec.Int(tagFDNum)
			slot, e2 := sec.Int(tagFDSlot)
			if err := errors.Join(e1, e2); err != nil {
				return p, err
			}
			p.FDs = append(p.FDs, FDEntry{FD: int(fd), Slot: int(slot)})
		default:
			if err := dec.Skip(); err != nil {
				return p, err
			}
		}
	}
	return p, nil
}
