// Command coolserve runs the COOL serving layer: a pool of warm native
// runtimes behind an HTTP/JSON job API. Jobs name a catalog app and a
// size preset; routing queues jobs with the same affinity key at that
// key's home runtime, an idle runtime steals from another's backlog,
// and admission control sheds load before it ties up a queue slot.
//
// Quickstart:
//
//	coolserve -procs 8 -runtimes 4 &
//	curl -s -X POST localhost:8080/jobs \
//	    -d '{"app":"gauss","size":"small","key":"tenant1/gauss"}'
//	curl -s localhost:8080/jobs/job-1
//	curl -s localhost:8080/report
//
// SIGTERM (or SIGINT) drains: admissions stop, queued jobs finish,
// then the process exits — no job is dropped mid-run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/coolrts/cool/internal/apps"
	"github.com/coolrts/cool/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		procs    = flag.Int("procs", 8, "processors per runtime")
		runtimes = flag.Int("runtimes", 4, "warm runtimes in the pool")
		policy   = flag.String("policy", "space-affinity",
			fmt.Sprintf("routing policy: %s", strings.Join(serve.RouterNames(), ", ")))
		admission = flag.String("admission", "always",
			fmt.Sprintf("admission policy: %s", strings.Join(serve.AdmissionNames(), ", ")))
		maxDepth = flag.Int("admission-max-depth", 64, "reject-overloaded: per-runtime depth ceiling")
		resident = flag.Int("resident-spaces", 4, "spaces whose prepared state each runtime keeps resident (-1 disables)")
	)
	flag.Parse()

	router, err := serve.NewRouter(*policy, *procs)
	if err != nil {
		log.Fatal(err)
	}
	admit, err := serve.NewAdmission(*admission, serve.AdmissionConfig{MaxDepth: *maxDepth})
	if err != nil {
		log.Fatal(err)
	}

	svc, err := serve.NewService(serve.Config{
		Runtimes:       *runtimes,
		Procs:          *procs,
		Router:         router,
		Admission:      admit,
		ResidentSpaces: *resident,
	})
	if err != nil {
		log.Fatal(err)
	}

	srv := &http.Server{Addr: *addr, Handler: serve.Handler(svc)}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("coolserve: %d warm runtimes x %d procs, router=%s admission=%s, listening on %s, apps: %s",
		*runtimes, *procs, router.Name(), admit.Name(), *addr, strings.Join(apps.CatalogNames(), ", "))

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		log.Printf("coolserve: %v — draining (queued jobs will finish)", sig)
	case err := <-errc:
		log.Fatalf("coolserve: server: %v", err)
	}

	// Stop taking HTTP requests, then drain the pool to quiescence.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("coolserve: http shutdown: %v", err)
	}
	svc.Drain()
	rep := svc.Report()
	var done int64
	for _, e := range rep.Runtimes {
		done += e.Completed
	}
	log.Printf("coolserve: drained: %d submitted, %d completed, %d rejected", rep.Submitted, done, rep.Rejected)
}
