// Network deploy: the trusted-third-party architecture over real TCP.
//
// This example runs the full Fig. 1 deployment inside one process but
// across a real network boundary: a casperd-style protocol server
// (anonymizer + privacy-aware DB server) listens on loopback, and
// mobile clients plus a traffic administrator talk to it over the
// pipelined binary wire. Exact coordinates cross the wire only between
// client and anonymizer.
//
// Run with:
//
//	go run ./examples/networkdeploy
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"casper"
)

func main() {
	// Every RPC below shares one deadline; a wedged server fails the
	// example instead of hanging it.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Server side: build the deployment and listen on an OS-chosen
	// loopback port.
	cfg := casper.DefaultConfig()
	cfg.Universe = casper.R(0, 0, 10000, 10000)
	cfg.PyramidLevels = 7
	core := casper.MustNew(cfg)
	if err := core.LoadPublicObjects(casper.UniformTargets(cfg.Universe, 500, 3)); err != nil {
		log.Fatalf("load targets: %v", err)
	}

	srv := casper.NewProtocolServer(core)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	defer srv.Close()
	fmt.Printf("casperd listening on %s\n\n", addr)

	// Client side: three phones and one admin console.
	phones := make([]*casper.ProtocolClient, 3)
	for i := range phones {
		cl, err := casper.DialProtocolContext(ctx, addr.String())
		if err != nil {
			log.Fatalf("dial: %v", err)
		}
		defer cl.Close()
		phones[i] = cl
	}
	positions := [][2]float64{{1200, 3400}, {1500, 3600}, {1900, 3100}}
	for i, cl := range phones {
		uid := int64(i + 1)
		if err := cl.Register(ctx, uid, positions[i][0], positions[i][1], i+1, 0); err != nil {
			log.Fatalf("register %d: %v", uid, err)
		}
		fmt.Printf("phone %d registered (k=%d) — exact position went ONLY to the anonymizer\n", uid, i+1)
	}

	// Phone 3 asks for the nearest point of interest.
	res, err := phones[2].NearestPublic(ctx, 3)
	if err != nil {
		log.Fatalf("nn: %v", err)
	}
	fmt.Printf("\nphone 3 nearest-POI query:\n")
	fmt.Printf("  candidate list: %d records over the wire\n", len(res.Candidates))
	fmt.Printf("  exact answer:   #%d at (%.0f, %.0f)\n",
		res.Exact.ID, res.Exact.Rect.MinX, res.Exact.Rect.MinY)

	// Phone 1 looks for the nearest buddy; the answer is a cloak.
	buddy, err := phones[0].NearestBuddy(ctx, 1)
	if err != nil {
		log.Fatalf("buddy: %v", err)
	}
	fmt.Printf("\nphone 1 nearest-buddy query: %d candidate cloaks, best region [%.0f,%.0f]x[%.0f,%.0f]\n",
		len(buddy.Candidates),
		buddy.Exact.Rect.MinX, buddy.Exact.Rect.MaxX,
		buddy.Exact.Rect.MinY, buddy.Exact.Rect.MaxY)

	// The admin console counts users without any anonymizer involved.
	admin, err := casper.DialProtocolContext(ctx, addr.String())
	if err != nil {
		log.Fatalf("dial admin: %v", err)
	}
	defer admin.Close()
	n, err := admin.CountUsers(ctx, casper.ProtocolRect{MinX: 0, MinY: 0, MaxX: 5000, MaxY: 5000}, "fractional")
	if err != nil {
		log.Fatalf("count: %v", err)
	}
	st, err := admin.Stats(ctx)
	if err != nil {
		log.Fatalf("stats: %v", err)
	}
	fmt.Printf("\nadmin: ~%.1f users in the SW quadrant; server stats: %d users, %d POIs, %d queries served\n",
		n, st.Users, st.PublicObjs, st.Queries)
}
