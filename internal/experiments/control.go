package experiments

import (
	"fmt"

	"vitis/internal/core"
	"vitis/internal/opt"
	"vitis/internal/rvr"
	"vitis/internal/sampling"
	"vitis/internal/simnet"
	"vitis/internal/tablefmt"
	"vitis/internal/tman"
	"vitis/internal/workload"
)

// trafficBreakdown tallies sent messages and bytes per protocol layer.
type trafficBreakdown struct {
	sampling  uint64
	tman      uint64
	heartbeat uint64
	structure uint64 // relay lookups / tree subscribes
	data      uint64 // notifications and pulls
	other     uint64
	bytes     uint64
}

func (b *trafficBreakdown) OnSend(from, to simnet.NodeID, msg simnet.Message) {
	b.bytes += uint64(simnet.WireSizeOf(msg))
	switch msg.(type) {
	case sampling.Request, sampling.Reply:
		b.sampling++
	case tman.Request, tman.Reply:
		b.tman++
	case core.ProfileMsg, opt.ProfileMsg, rvr.Ping, rvr.Pong:
		b.heartbeat++
	case core.RelayMsg, rvr.SubscribeMsg:
		b.structure++
	case core.Notification, rvr.Notification, opt.Notification, core.PullReq, core.PullResp:
		b.data++
	default:
		b.other++
	}
}

func (b *trafficBreakdown) OnDeliver(from, to simnet.NodeID, msg simnet.Message) {}
func (b *trafficBreakdown) OnDrop(from, to simnet.NodeID, msg simnet.Message)    {}

func (b *trafficBreakdown) total() uint64 {
	return b.sampling + b.tman + b.heartbeat + b.structure + b.data + b.other
}

// ControlTraffic compares the maintenance cost of the three systems: how
// many messages per node per round each protocol layer generates. The paper
// argues overlay-per-topic designs pay their low data overhead with
// connection management that scales with the subscription count; this table
// makes the trade visible.
func ControlTraffic(sc Scale) (*tablefmt.Table, error) {
	tab := &tablefmt.Table{
		Title: "Ablation — control vs data traffic (messages per node per round)",
		Columns: []string{"system", "sampling", "t-man", "heartbeat",
			"structure", "data", "total", "KB/node/round"},
	}
	subs, err := sc.subscriptions(workload.LowCorrelation)
	if err != nil {
		return nil, err
	}
	rounds := sc.WarmupRounds + sc.MeasureRounds + 15 // runner's drain default
	systems := []System{Vitis, RVR, OPT}
	// One breakdown observer per job: observers are attached to that job's
	// private network, so concurrent runs never share counters.
	breakdowns := make([]*trafficBreakdown, len(systems))
	jobs := make([]job, len(systems))
	for i, sys := range systems {
		i, sys := i, sys
		breakdowns[i] = &trafficBreakdown{}
		jobs[i] = job{label: fmt.Sprintf("control-traffic %v", sys), run: func() error {
			cfg := sc.runCfg()
			cfg.System = sys
			cfg.Subs = subs
			cfg.ExtraObserver = breakdowns[i]
			_, err := Run(cfg)
			return err
		}}
	}
	if err := sc.runJobs(jobs); err != nil {
		return nil, err
	}
	for i, sys := range systems {
		b := breakdowns[i]
		perNodeRound := func(v uint64) string {
			return tablefmt.F(float64(v)/float64(subs.Nodes)/float64(rounds), 2)
		}
		tab.AddRow(sys.String(), perNodeRound(b.sampling), perNodeRound(b.tman),
			perNodeRound(b.heartbeat), perNodeRound(b.structure),
			perNodeRound(b.data), perNodeRound(b.total()),
			tablefmt.F(float64(b.bytes)/1024/float64(subs.Nodes)/float64(rounds), 2))
	}
	tab.AddNote("heartbeat counts profile exchanges (Vitis/OPT) or ping-pong (RVR); structure counts relay lookups (Vitis) or tree subscribes (RVR)")
	if sc.Nodes > 0 {
		tab.AddNote(fmt.Sprintf("population %d nodes, %d rounds", subs.Nodes, rounds))
	}
	return tab, nil
}
