package main

import (
	"fmt"

	"ivleague/internal/layout"
	"ivleague/internal/secmem"
	"ivleague/internal/telemetry"
)

// Kinds of logged calls. The secmem-churn stream and the replay logs share
// one record type; secmemDriver sends them into a controller.
const (
	kMap    uint8 = iota // OnPageMap
	kUnmap               // OnPageUnmap
	kWalk                // OnPageWalk (TLB miss)
	kEvict               // TLBEvicted
	kRead                // Do, read (LLC miss)
	kWrite               // Do, write (dirty LLC victim)
	kReset               // warmup -> measure boundary: registry reset
	kAccess              // replay only: a memory access entering the caches
	kVictim              // replay only: a dirty LLC victim, owner unresolved
	numKinds
)

var kindNames = [numKinds]string{"map", "unmap", "walk", "evict", "read", "write", "reset", "access", "victim"}

// rec is one logged call. dom, vpn, pfn and block address it; th is the
// issuing hardware thread (replay only).
type rec struct {
	kind  uint8
	th    uint8
	block uint8
	write bool
	dom   int32
	vpn   layout.VPN
	pfn   layout.PFN
}

// secmemDriver sends logged calls into a controller with a synthetic
// clock that advances by each call's latency. Nothing structural in the
// controller depends on the clock; only DRAM timing does.
type secmemDriver struct {
	ctl    *secmem.Controller
	reg    *telemetry.Registry
	now    uint64
	latSum uint64
	calls  uint64 // Do + OnPageMap + OnPageUnmap
	count  [numKinds]uint64
	// pre is the registry snapshot taken just before the warmup reset, so
	// whole-run counts are pre plus the final snapshot.
	pre    telemetry.Snapshot
	hasPre bool

	// Sampled per-kind timing (traced runs): every sampleEvery-th call is
	// timed on its own, to apportion a chunk-timed total between kinds.
	sampleEvery int
	sampledNs   [numKinds]int64
	sampled     [numKinds]uint64
}

// exec sends recs in order, stopping at the first error.
func (d *secmemDriver) exec(recs []rec) error {
	for i := range recs {
		if err := d.call(&recs[i]); err != nil {
			return err
		}
	}
	return nil
}

// execSampled is exec that also times every sampleEvery-th call.
func (d *secmemDriver) execSampled(recs []rec) error {
	for i := range recs {
		r := &recs[i]
		if i%d.sampleEvery != 0 {
			if err := d.call(r); err != nil {
				return err
			}
			continue
		}
		t0 := cpuTime()
		err := d.call(r)
		d.sampledNs[r.kind] += int64(cpuTime() - t0)
		d.sampled[r.kind]++
		if err != nil {
			return err
		}
	}
	return nil
}

func (d *secmemDriver) call(r *rec) error {
	d.count[r.kind]++
	var lat int
	var err error
	switch r.kind {
	case kMap:
		lat, err = d.ctl.OnPageMap(d.now, int(r.dom), r.vpn, r.pfn)
	case kUnmap:
		lat, err = d.ctl.OnPageUnmap(d.now, int(r.dom), r.vpn, r.pfn)
	case kWalk:
		d.ctl.OnPageWalk(int(r.dom), r.vpn)
		return nil
	case kEvict:
		d.ctl.TLBEvicted(int(r.dom), r.vpn)
		return nil
	case kRead, kWrite:
		var res secmem.AccessResult
		res, err = d.ctl.Do(secmem.AccessRequest{
			Now: d.now, Domain: int(r.dom), VPN: r.vpn, PFN: r.pfn,
			Block: int(r.block), Write: r.kind == kWrite,
		})
		lat = res.Latency
	case kReset:
		d.pre, d.hasPre = d.reg.Snapshot(), true
		d.reg.Reset()
		return nil
	default:
		return fmt.Errorf("secmem driver: unexpected %s record", kindNames[r.kind])
	}
	if err != nil {
		return fmt.Errorf("secmem %s dom %d vpn %#x pfn %#x: %w", kindNames[r.kind], r.dom, uint64(r.vpn), uint64(r.pfn), err)
	}
	d.calls++
	d.latSum += uint64(lat)
	d.now += uint64(lat) + 1
	return nil
}

// total returns a counter's whole-run value across the warmup reset.
func (d *secmemDriver) total(final telemetry.Snapshot, name string) uint64 {
	v := final.Counter(name)
	if d.hasPre {
		v += d.pre.Counter(name)
	}
	return v
}
