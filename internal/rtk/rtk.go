// Package rtk implements the runtime in kernel (RTK) path (§3): the
// OpenMP runtime and its dependencies linked directly into the Nautilus
// kernel. It assembles the pieces the paper describes — the adjusted
// compilation flags (§3.1), the pthread compatibility layer (§3.3), the
// kernel environment-variable and sysconf dependencies (§3.4), hardware
// TLS on %fs, and lazy FPU save/restore — and converts the application's
// main() into a kernel shell command.
package rtk

import (
	"fmt"

	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/nautilus"
	"github.com/interweaving/komp/internal/omp"
	"github.com/interweaving/komp/internal/places"
	"github.com/interweaving/komp/internal/pthread"
)

// BuildConfig captures the compilation adjustments of §3.1: kernel code
// must use the kernel memory model, must not use the x64 red zone
// (interrupts run on the current thread's stack), and is statically
// linked into the kernel image by the kernel's link process.
type BuildConfig struct {
	// MemModel must be "kernel" (-mcmodel=kernel).
	MemModel string
	// RedZone must be false (-mno-red-zone).
	RedZone bool
	// StaticLib selects the separate-static-library integration path
	// (§3.1 option 2) as opposed to building inside the kernel tree.
	StaticLib bool
	// Flags lists the resulting compiler flags, for display.
	Flags []string
}

// DefaultBuild returns the RTK build configuration.
func DefaultBuild() BuildConfig {
	return BuildConfig{
		MemModel:  "kernel",
		RedZone:   false,
		StaticLib: true,
		Flags:     []string{"-mcmodel=kernel", "-mno-red-zone", "-static", "-fno-pie"},
	}
}

// Validate rejects configurations that would crash in kernel context.
func (b BuildConfig) Validate() error {
	if b.MemModel != "kernel" {
		return fmt.Errorf("rtk: memory model %q; kernel linkage requires -mcmodel=kernel (§3.1)", b.MemModel)
	}
	if b.RedZone {
		return fmt.Errorf("rtk: red zone enabled; an interrupt on the thread stack would clobber it (§3.1)")
	}
	return nil
}

// Options configures the port.
type Options struct {
	// OMP is the in-kernel libomp's starting configuration; kernel
	// environment variables are applied on top of it (§3.4). Its
	// PthreadImpl selects the compatibility layer variant — PTE (the
	// portable port, Fig. 2a) or Custom (the Nautilus-customized layer,
	// Fig. 2b), the default — and workers are always bound: kernel
	// threads are created on their CPU.
	OMP omp.Options
	// Build is validated at port time.
	Build *BuildConfig
}

// Port is libomp ported into the kernel: an OpenMP runtime whose
// execution layer, threading, TLS, environment and sysconf are all
// kernel facilities.
type Port struct {
	K  *nautilus.Kernel
	RT *omp.Runtime

	// TLSTemplate is the application's TLS image, cloned per thread.
	TLSTemplate *nautilus.TLSImage
}

// NewPort wires the OpenMP runtime into a booted kernel.
func NewPort(k *nautilus.Kernel, opts Options) (*Port, error) {
	build := DefaultBuild()
	if opts.Build != nil {
		build = *opts.Build
	}
	if err := build.Validate(); err != nil {
		return nil, err
	}
	oopts := opts.OMP
	oopts.Bind = true
	if oopts.PthreadImpl == pthread.NPTL {
		oopts.PthreadImpl = pthread.Custom
	}
	// The in-kernel libomp reads kernel environment variables (§3.4).
	if err := oopts.Env(k.Getenv); err != nil {
		return nil, err
	}
	// Places resolve against the kernel's machine topology — after the
	// environment, so a kernel OMP_PLACES takes effect.
	if oopts.Places == nil {
		part, err := places.Parse(oopts.PlacesSpec, places.ForMachine(k.Machine))
		if err != nil {
			return nil, fmt.Errorf("rtk: %w", err)
		}
		oopts.Places = part
	}
	// Clamp OMP_NUM_THREADS to the machine via the kernel's sysconf.
	if n, err := k.Sysconf(nautilus.ScNProcessorsOnln); err == nil {
		if oopts.DefaultThreads > int(n) {
			oopts.DefaultThreads = int(n)
		}
	}
	// Kernel/application integration needs SSE state managed across
	// interrupts (§3.4).
	k.LazyFPU = true
	p := &Port{
		K:           k,
		RT:          omp.New(k.Layer, oopts),
		TLSTemplate: &nautilus.TLSImage{Data: make([]byte, 64), BSSSize: 64},
	}
	return p, nil
}

// Main is an RTK application entry: what the original main() becomes.
type Main func(tc exec.TC, port *Port, args []string) error

// RegisterMain converts an application main() into a Nautilus shell
// command (§3.1: "converting the application's main() into a Nautilus
// shell command"). The wrapper installs the thread's TLS block before
// entering the application.
func (p *Port) RegisterMain(name string, m Main) {
	p.K.RegisterCommand(name, func(tc exec.TC, k *nautilus.Kernel, args []string) error {
		k.SetTLS(tc, p.TLSTemplate)
		return m(tc, p, args)
	})
}

// Parallel forwards to the in-kernel OpenMP runtime.
func (p *Port) Parallel(tc exec.TC, n int, fn func(*omp.Worker)) {
	p.RT.Parallel(tc, n, fn)
}

// Close shuts the runtime's pool down.
func (p *Port) Close(tc exec.TC) { p.RT.Close(tc) }
