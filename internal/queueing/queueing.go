// Package queueing provides the classical closed-form queueing results
// (M/M/1, M/M/c, M/D/1, M/G/1, Kingman, processor sharing, Jackson
// networks, exact MVA) and Poisson and MMPP arrival processes.
//
// The package's tests validate the closed forms against simulation with
// the discrete-event stations of the paper's SES/Workbench models —
// sources, servers, delays, routers, links, sinks, closed loops and
// processor sharing — which live in act_test.go: a Workbench model is a
// directed graph of service and delay nodes through which transactions
// flow, and maps one-to-one onto them.
package queueing
