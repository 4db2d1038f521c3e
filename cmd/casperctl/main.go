// Command casperctl is the command-line client for casperd.
//
// Usage:
//
//	casperctl [-addr host:port] <command> [args]
//
// Commands:
//
//	register <uid> <x> <y> <k> [amin]   register a mobile user
//	update   <uid> <x> <y>              send a location update
//	deregister <uid>                    remove a user
//	profile  <uid> <k> [amin]           change a privacy profile
//	nn       <uid>                      nearest public object
//	knn      <uid> <k>                  k nearest public objects
//	buddy    <uid>                      nearest (cloaked) buddy
//	range    <uid> <radius>             public objects within radius
//	count    <x0> <y0> <x1> <y1> [policy]  users in a region
//	density  [n]                        ASCII density heatmap
//	add-public <id> <x> <y> <name>      add a public object
//	stats <debug-addr> [-watch interval]  deployment statistics from the
//	                                    host:port of casperd -debug-addr:
//	                                    health, readiness and /debug/stats
//	                                    (statistics plus every metric
//	                                    family); -watch prints per-second
//	                                    counter rates
//	trace <debug-addr> [trace-id]       list recent request traces, or render
//	                                    one trace's span waterfall
//	privacy <debug-addr> [-watch interval]  the live privacy observatory:
//	                                    per-backend achieved-k distribution,
//	                                    k-satisfied fraction, windowed entropy,
//	                                    linkage estimate, ε-budget ledger and
//	                                    the privacy-SLO verdict
//	raw '<json request>'                send one hand-written request (the
//	                                    JSON form of protocol.Request) and
//	                                    print the response as JSON
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"casper"
	"casper/internal/protocol"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7467", "casperd address")
	timeout := flag.Duration("timeout", 10*time.Second, "per-command deadline (0 disables)")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// `stats`, `privacy` and `trace` talk to the observability
	// endpoint, not the protocol port, so they need no protocol
	// connection at all.
	if args[0] == "stats" {
		if len(args) < 2 {
			fatal("stats: need the casperd -debug-addr (host:port)")
		}
		fs := flag.NewFlagSet("stats", flag.ExitOnError)
		watch := fs.Duration("watch", 0, "fetch twice, this far apart, and print per-second counter rates")
		fs.Parse(args[2:])
		if err := statsFromDebug(os.Stdout, args[1], *watch); err != nil {
			fatal("stats: %v", err)
		}
		return
	}
	if args[0] == "privacy" {
		if len(args) < 2 {
			fatal("privacy: need the casperd -debug-addr (host:port)")
		}
		fs := flag.NewFlagSet("privacy", flag.ExitOnError)
		watch := fs.Duration("watch", 0, "refresh this often until interrupted")
		fs.Parse(args[2:])
		if err := privacyFromDebug(os.Stdout, args[1], *watch); err != nil {
			fatal("privacy: %v", err)
		}
		return
	}
	if args[0] == "trace" {
		if len(args) < 2 {
			fatal("trace: need the casperd -debug-addr (host:port)")
		}
		id := ""
		if len(args) > 2 {
			id = args[2]
		}
		if err := traceFromDebug(args[1], id); err != nil {
			fatal("trace: %v", err)
		}
		return
	}

	cl, err := casper.DialProtocolContext(ctx, *addr)
	if err != nil {
		fatal("%v", err)
	}
	defer cl.Close()

	cmd, args := args[0], args[1:]
	if err := run(ctx, cl, cmd, args); err != nil {
		fatal("%s: %v", cmd, err)
	}
}

func run(ctx context.Context, cl *casper.ProtocolClient, cmd string, args []string) error {
	switch cmd {
	case "raw":
		return raw(ctx, cl, argStr(args, 0))
	case "register":
		uid, x, y := argInt(args, 0), argF(args, 1), argF(args, 2)
		k := int(argInt(args, 3))
		amin := 0.0
		if len(args) > 4 {
			amin = argF(args, 4)
		}
		if err := cl.Register(ctx, uid, x, y, k, amin); err != nil {
			return err
		}
		fmt.Printf("registered user %d (k=%d, Amin=%g)\n", uid, k, amin)
	case "update":
		if err := cl.Update(ctx, argInt(args, 0), argF(args, 1), argF(args, 2)); err != nil {
			return err
		}
		fmt.Println("ok")
	case "deregister":
		if err := cl.Deregister(ctx, argInt(args, 0)); err != nil {
			return err
		}
		fmt.Println("ok")
	case "profile":
		amin := 0.0
		if len(args) > 2 {
			amin = argF(args, 2)
		}
		if err := cl.SetProfile(ctx, argInt(args, 0), int(argInt(args, 1)), amin); err != nil {
			return err
		}
		fmt.Println("ok")
	case "nn":
		res, err := cl.NearestPublic(ctx, argInt(args, 0))
		if err != nil {
			return err
		}
		printNN(res)
	case "knn":
		items, cost, err := cl.KNearestPublic(ctx, argInt(args, 0), int(argInt(args, 1)))
		if err != nil {
			return err
		}
		fmt.Printf("%d nearest objects (%d candidates shipped):\n", len(items), cost.Candidates)
		for i, it := range items {
			fmt.Printf("  %d. #%d %s at (%.1f, %.1f)\n", i+1, it.ID, it.Name, it.Rect.MinX, it.Rect.MinY)
		}
	case "buddy":
		res, err := cl.NearestBuddy(ctx, argInt(args, 0))
		if err != nil {
			return err
		}
		printNN(res)
	case "range":
		items, cost, err := cl.RangePublic(ctx, argInt(args, 0), argF(args, 1))
		if err != nil {
			return err
		}
		fmt.Printf("%d objects within range (%d candidates shipped):\n", len(items), cost.Candidates)
		for _, it := range items {
			fmt.Printf("  #%d %s at (%.1f, %.1f)\n", it.ID, it.Name, it.Rect.MinX, it.Rect.MinY)
		}
	case "count":
		r := protocol.Rect{
			MinX: argF(args, 0), MinY: argF(args, 1),
			MaxX: argF(args, 2), MaxY: argF(args, 3),
		}
		policy := ""
		if len(args) > 4 {
			policy = args[4]
		}
		n, err := cl.CountUsers(ctx, r, policy)
		if err != nil {
			return err
		}
		fmt.Printf("%.2f users\n", n)
	case "add-public":
		if err := cl.AddPublic(ctx, argInt(args, 0), argF(args, 1), argF(args, 2), argStr(args, 3)); err != nil {
			return err
		}
		fmt.Println("ok")
	case "density":
		n := 16
		if len(args) > 0 {
			n = int(argInt(args, 0))
		}
		grid, err := cl.Density(ctx, n)
		if err != nil {
			return err
		}
		shades := []byte(" .:-=+*#%@")
		maxV := 0.0
		for _, row := range grid {
			for _, v := range row {
				if v > maxV {
					maxV = v
				}
			}
		}
		// Print top row first (grid[0] is the bottom).
		for y := len(grid) - 1; y >= 0; y-- {
			line := make([]byte, len(grid[y]))
			for x, v := range grid[y] {
				idx := 0
				if maxV > 0 {
					idx = int(v / maxV * float64(len(shades)-1))
				}
				line[x] = shades[idx]
			}
			fmt.Printf("  %s\n", line)
		}
		fmt.Printf("(expected users per cell, max %.1f)\n", maxV)
	default:
		return fmt.Errorf("unknown command (run casperctl -h)")
	}
	return nil
}

// raw is the JSON transcoder: it decodes one hand-written request,
// sends it over the binary wire and prints the response as JSON, error
// responses included (they are answers, not transport failures).
func raw(ctx context.Context, cl *casper.ProtocolClient, line string) error {
	var req protocol.Request
	if err := json.Unmarshal([]byte(line), &req); err != nil {
		return fmt.Errorf("request is not JSON: %w", err)
	}
	resp, err := cl.Raw(ctx, req)
	if err != nil {
		return err
	}
	out, err := json.Marshal(resp)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func printNN(res protocol.NNResult) {
	fmt.Printf("exact answer: #%d %s at (%.1f, %.1f)\n",
		res.Exact.ID, res.Exact.Name, res.Exact.Rect.MinX, res.Exact.Rect.MinY)
	fmt.Printf("candidate list: %d records, cloak %v ns + query %v ns\n",
		res.Cost.Candidates, res.Cost.CloakNS, res.Cost.QueryNS)
}

func argStr(args []string, i int) string {
	if i >= len(args) {
		fatal("missing argument %d (run casperctl -h)", i+1)
	}
	return args[i]
}

func argF(args []string, i int) float64 {
	v, err := strconv.ParseFloat(argStr(args, i), 64)
	if err != nil {
		fatal("argument %d: %v", i+1, err)
	}
	return v
}

func argInt(args []string, i int) int64 {
	v, err := strconv.ParseInt(argStr(args, i), 10, 64)
	if err != nil {
		fatal("argument %d: %v", i+1, err)
	}
	return v
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "casperctl: "+format+"\n", args...)
	os.Exit(1)
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: casperctl [-addr host:port] <command> [args]

commands:
  register <uid> <x> <y> <k> [amin]      register a mobile user
  update   <uid> <x> <y>                 send a location update
  deregister <uid>                       remove a user
  profile  <uid> <k> [amin]              change a privacy profile
  knn      <uid> <k>                     k nearest public objects
  nn       <uid>                         nearest public object
  buddy    <uid>                         nearest (cloaked) buddy
  range    <uid> <radius>                public objects within radius
  count    <x0> <y0> <x1> <y1> [policy]  users in a region
  density  [n]                           ASCII density heatmap (n x n)
  add-public <id> <x> <y> <name>         add a public object
  stats <debug-addr> [-watch interval]   deployment statistics from the
                                         host:port of casperd -debug-addr:
                                         health, readiness and /debug/stats
                                         (statistics plus every metric
                                         family); -watch prints per-second
                                         counter rates over the interval
  trace <debug-addr> [trace-id]          list recent request traces, or
                                         render one trace's span waterfall
  privacy <debug-addr> [-watch interval] the live privacy observatory:
                                         per-backend achieved-k, k-satisfied
                                         fraction, windowed entropy, linkage
                                         estimate, ε-budget ledger, SLO verdict
  raw '<json request>'                   send one hand-written request, e.g.
                                         '{"op":"nn_public","uid":7}', and
                                         print the response as JSON
`)
}
