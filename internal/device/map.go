package device

import (
	"reflect"

	"github.com/interweaving/komp/internal/exec"
)

// MapKind is the map-type modifier of a map clause.
type MapKind uint8

// Map-type modifiers. Presence semantics follow OpenMP 5.x: a mapping
// already present only has its reference count bumped — no data moves —
// which is exactly why hoisting maps into an enclosing `target data`
// eliminates the per-region transfer traffic.
const (
	// To copies host→device when the mapping is created.
	To MapKind = iota
	// From copies device→host when the last reference is released.
	From
	// Tofrom does both.
	Tofrom
	// Alloc allocates device memory with no transfer either way.
	Alloc
)

func (k MapKind) String() string {
	switch k {
	case To:
		return "to"
	case From:
		return "from"
	case Tofrom:
		return "tofrom"
	}
	return "alloc"
}

// Map is one map clause entry: a host object (a slice, or a pointer to
// a scalar/struct) and its map-type.
type Map struct {
	Obj  any
	Kind MapKind
}

// MapTo, MapFrom, MapTofrom and MapAlloc build map clause entries.
func MapTo(obj any) Map     { return Map{Obj: obj, Kind: To} }
func MapTofrom(obj any) Map { return Map{Obj: obj, Kind: Tofrom} }
func MapAlloc(obj any) Map  { return Map{Obj: obj, Kind: Alloc} }

// buffer is one entry of the host↔device address-translation table: the
// host object, its device-side copy, and the reference count that
// structured (`target data`) and unstructured (`enter/exit data`)
// mappings share.
type buffer struct {
	host  any
	dev   any
	bytes int64
	ref   int
	kind  MapKind // kind the mapping was created with (From drives the final copy-out)
}

// hostKey derives the table key from a host object: the data pointer of
// a slice, or the pointer itself. Two views of the same storage map to
// the same device buffer, as OpenMP's present table requires.
func hostKey(obj any) uintptr {
	v := reflect.ValueOf(obj)
	switch v.Kind() {
	case reflect.Slice, reflect.Pointer:
		return v.Pointer()
	}
	panic("device: only slices and pointers are mappable, got " + reflect.TypeOf(obj).String())
}

// hostBytes sizes a mappable object.
func hostBytes(obj any) int64 {
	v := reflect.ValueOf(obj)
	switch v.Kind() {
	case reflect.Slice:
		return int64(v.Len()) * int64(v.Type().Elem().Size())
	case reflect.Pointer:
		return int64(v.Type().Elem().Size())
	}
	panic("device: only slices and pointers are mappable, got " + reflect.TypeOf(obj).String())
}

// newDevCopy allocates the device-side object: same type and length,
// zero-initialized (transfers fill it when the map-type says so).
func newDevCopy(obj any) any {
	v := reflect.ValueOf(obj)
	switch v.Kind() {
	case reflect.Slice:
		return reflect.MakeSlice(v.Type(), v.Len(), v.Len()).Interface()
	case reflect.Pointer:
		return reflect.New(v.Type().Elem()).Interface()
	}
	panic("device: only slices and pointers are mappable")
}

// copyData moves the payload between the host object and its device
// copy (dir true: host→device).
func copyData(host, dev any, h2d bool) {
	hv, dv := reflect.ValueOf(host), reflect.ValueOf(dev)
	if hv.Kind() == reflect.Slice {
		if h2d {
			reflect.Copy(dv, hv)
		} else {
			reflect.Copy(hv, dv)
		}
		return
	}
	if h2d {
		dv.Elem().Set(hv.Elem())
	} else {
		hv.Elem().Set(dv.Elem())
	}
}

// mapAllocNS is the driver-side cost of creating or destroying one
// device allocation (ioctl round trip, device allocator).
const mapAllocNS = 800

// Enter maps objects onto the device (`target enter data`, and the
// entry half of `target`/`target data`). A mapping already present only
// gains a reference; a new mapping allocates device memory — failing
// loudly past the device's capacity — and copies host→device when the
// map-type includes `to`. The transfer occupies the DMA engine via
// Contend, so concurrent mappers serialize deterministically.
func (d *Dev) Enter(tc exec.TC, ms ...Map) {
	d.Init(tc)
	for _, m := range ms {
		k := hostKey(m.Obj)
		bytes := hostBytes(m.Obj)
		d.mu.Lock()
		b := d.bufs[k]
		created := b == nil
		if created {
			if d.alloced+bytes > d.topo.MemBytes {
				d.mu.Unlock()
				d.failf("out of device memory mapping %d bytes (%d of %d in use)",
					bytes, d.alloced, d.topo.MemBytes)
			}
			b = &buffer{host: m.Obj, dev: newDevCopy(m.Obj), bytes: bytes, kind: m.Kind}
			d.bufs[k] = b
			d.alloced += bytes
		}
		b.ref++
		d.mu.Unlock()
		if !created {
			continue
		}
		tc.Charge(mapAllocNS)
		d.emitData(tc, opAlloc, bytes)
		if m.Kind == To || m.Kind == Tofrom {
			d.transfer(tc, b, true)
		}
	}
}

// Exit unmaps objects (`target exit data`, and the exit half of
// `target`/`target data`): the reference count drops, and when the last
// reference goes the mapping copies device→host if either the creating
// or the releasing map-type includes `from`, then frees the device
// memory. Unmapping an object that is not mapped fails loudly.
func (d *Dev) Exit(tc exec.TC, ms ...Map) {
	for _, m := range ms {
		k := hostKey(m.Obj)
		d.mu.Lock()
		b := d.bufs[k]
		if b == nil || b.ref <= 0 {
			d.mu.Unlock()
			d.failf("exit data for object that is not mapped (%T)", m.Obj)
		}
		b.ref--
		last := b.ref == 0
		if last {
			delete(d.bufs, k)
			d.alloced -= b.bytes
		}
		d.mu.Unlock()
		if !last {
			continue
		}
		if m.Kind == From || m.Kind == Tofrom || b.kind == From {
			d.transfer(tc, b, false)
		}
		tc.Charge(mapAllocNS)
		d.emitData(tc, opDelete, b.bytes)
	}
}

// Data brackets body with a structured mapping (`target data`): enter
// the maps, run the body (whose target regions find the mappings
// present and move no data), exit in reverse order.
func (d *Dev) Data(tc exec.TC, ms []Map, body func()) {
	d.Enter(tc, ms...)
	body()
	for i := len(ms) - 1; i >= 0; i-- {
		d.Exit(tc, ms[i])
	}
}

// Ptr translates a host object to its device-side counterpart — the
// device address a kernel body dereferences. Using an object that is
// not (or no longer) mapped is the dangling-device-pointer bug class,
// and it fails loudly here instead of silently reading stale memory.
func (d *Dev) Ptr(obj any) any {
	k := hostKey(obj)
	d.mu.Lock()
	b := d.bufs[k]
	d.mu.Unlock()
	if b == nil {
		d.failf("dangling device pointer: %T is not mapped (use map clauses or target data)", obj)
	}
	return b.dev
}

// Mapped reports whether a host object currently has a device mapping.
func (d *Dev) Mapped(obj any) bool {
	k := hostKey(obj)
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bufs[k] != nil
}

// transfer moves one buffer across the link. The DMA engine is an
// exec.Line: the transfer owns it for latency + bytes/bandwidth
// nanoseconds, so back-to-back transfers queue behind each other in
// virtual time — deterministic because the order procs reach Contend is.
func (d *Dev) transfer(tc exec.TC, b *buffer, h2d bool) {
	ns := d.topo.TransferNS(b.bytes)
	tc.Contend(&d.dma, ns)
	copyData(b.host, b.dev, h2d)
	if h2d {
		d.bytesH2D.Add(b.bytes)
		d.emitData(tc, opH2D, b.bytes)
	} else {
		d.bytesD2H.Add(b.bytes)
		d.emitData(tc, opD2H, b.bytes)
	}
}
