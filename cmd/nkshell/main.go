// Command nkshell boots the Nautilus-analogue kernel and drops into its
// shell — the RTK experience of §3.1: OpenMP applications whose main()
// has become a kernel shell command, controlled through kernel
// environment variables.
//
// Usage:
//
//	nkshell                         # run the demo script
//	nkshell 'setenv OMP_NUM_THREADS 8' 'ep.C' 'bt.B'
//
// Built-in commands: help, env, setenv K V, sysconf, commands, plus one
// command per NAS benchmark model (bt.B, ft.B, ep.C, mg.C, sp.C, lu.C,
// cg.C, is.C) that runs the benchmark in-kernel and reports its virtual
// run time.
package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"

	"github.com/interweaving/komp/internal/cck"
	"github.com/interweaving/komp/internal/core"
	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/machine"
	"github.com/interweaving/komp/internal/nas"
	"github.com/interweaving/komp/internal/nautilus"
	"github.com/interweaving/komp/internal/omp"
)

func main() {
	script := os.Args[1:]
	interactive := false
	if len(script) == 1 && script[0] == "-i" {
		interactive = true
		script = nil
	}
	if len(script) == 0 && !interactive {
		script = []string{
			"help",
			"sysconf",
			"setenv OMP_NUM_THREADS 32",
			"env",
			"ep.C",
			"setenv OMP_NUM_THREADS 64",
			"ep.C",
			"bt.B",
		}
	}

	m := machine.PHI()
	env := core.New(core.Config{Machine: m, Kind: core.RTK, Seed: 7, Threads: m.NumCPUs()})
	k := env.Kernel
	fmt.Printf("nautilus-analogue kernel booted: %s, %d CPUs, %d NUMA zone(s), %s pages\n",
		m.Name, m.NumCPUs(), len(m.Zones), pageName(env.PageSize))

	registerBuiltins(k)
	registerNAS(k, env)

	_, err := k.Layer.Run(func(tc exec.TC) {
		if interactive {
			fmt.Println("interactive shell; 'help' lists commands, EOF exits")
			sc := bufio.NewScanner(os.Stdin)
			for {
				fmt.Print("nk> ")
				if !sc.Scan() {
					fmt.Println()
					return
				}
				if err := k.RunCommand(tc, sc.Text()); err != nil {
					fmt.Printf("error: %v\n", err)
				}
			}
		}
		for _, line := range script {
			fmt.Printf("nk> %s\n", line)
			if err := k.RunCommand(tc, line); err != nil {
				fmt.Printf("error: %v\n", err)
			}
		}
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "nkshell: %v\n", err)
		os.Exit(1)
	}
}

func pageName(sz int64) string {
	switch {
	case sz >= 1<<30:
		return fmt.Sprintf("%dGiB", sz>>30)
	case sz >= 1<<20:
		return fmt.Sprintf("%dMiB", sz>>20)
	default:
		return fmt.Sprintf("%dKiB", sz>>10)
	}
}

func registerBuiltins(k *nautilus.Kernel) {
	k.RegisterCommand("help", func(tc exec.TC, k *nautilus.Kernel, args []string) error {
		fmt.Printf("commands: %s\n", strings.Join(k.Commands(), " "))
		return nil
	})
	k.RegisterCommand("env", func(tc exec.TC, k *nautilus.Kernel, args []string) error {
		for _, kv := range k.Environ() {
			fmt.Println(kv)
		}
		return nil
	})
	k.RegisterCommand("setenv", func(tc exec.TC, k *nautilus.Kernel, args []string) error {
		if len(args) != 2 {
			return fmt.Errorf("usage: setenv KEY VALUE")
		}
		// The in-kernel libomp reads these when the next benchmark builds
		// its runtime; reject a value it would refuse now, at the prompt.
		var probe omp.Options
		if err := probe.Env(func(name string) (string, bool) { return args[1], name == args[0] }); err != nil {
			return err
		}
		k.Setenv(args[0], args[1])
		return nil
	})
	k.RegisterCommand("sysconf", func(tc exec.TC, k *nautilus.Kernel, args []string) error {
		for _, key := range []string{nautilus.ScNProcessorsOnln, nautilus.ScPageSize, nautilus.ScClkTck} {
			v, err := k.Sysconf(key)
			if err != nil {
				return err
			}
			fmt.Printf("%s = %d\n", key, v)
		}
		return nil
	})
	k.RegisterCommand("commands", func(tc exec.TC, k *nautilus.Kernel, args []string) error {
		fmt.Println(strings.Join(k.Commands(), "\n"))
		return nil
	})
}

// registerNAS converts each NAS benchmark model's main() into a shell
// command, as RTK does (§3.1). The commands run the structural model on
// the in-kernel OpenMP runtime and print virtual time.
func registerNAS(k *nautilus.Kernel, env *core.Env) {
	for _, s := range nas.Specs() {
		s := s
		name := strings.ToLower(s.Name) + "." + s.Class
		k.RegisterCommand(name, func(tc exec.TC, k *nautilus.Kernel, args []string) error {
			threads := k.ParseEnvInt("OMP_NUM_THREADS", k.Machine.NumCPUs())
			if threads > k.Machine.NumCPUs() {
				threads = k.Machine.NumCPUs()
			}
			prog := s.Program(k.Machine, threads, nas.PipeOpenMP)
			rt := env.OMPRuntime()
			t0 := tc.Now()
			cck.RunOpenMP(tc, prog, rt, threads, env.Scale(0))
			rt.Close(tc)
			fmt.Printf("%s: %d threads, %.2f virtual seconds\n",
				name, threads, float64(tc.Now()-t0)/1e9)
			return nil
		})
	}
}
