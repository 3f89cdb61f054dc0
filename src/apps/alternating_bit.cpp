#include "apps/alternating_bit.hpp"

#include "common/check.hpp"

namespace dcft::apps {

StateIndex AlternatingBitSystem::initial_state() const { return 0; }

AlternatingBitSystem make_alternating_bit(int channel_capacity,
                                          int window_mod) {
    DCFT_EXPECTS(channel_capacity >= 1, "need channel capacity >= 1");
    DCFT_EXPECTS(window_mod >= 2, "need window modulus >= 2");

    auto builder = std::make_shared<StateSpace>();
    Channel data(*builder, "D", channel_capacity, 2);
    Channel acks(*builder, "A", channel_capacity, 2);
    const VarId sbit = builder->add_variable("sbit", 2);
    const VarId rbit = builder->add_variable("rbit", 2);
    const VarId sent = builder->add_variable("sent", window_mod);
    const VarId delivered = builder->add_variable("delivered", window_mod);
    builder->freeze();
    std::shared_ptr<const StateSpace> space = builder;
    const Value m = window_mod;

    Program protocol(space, "alternating-bit");
    // transmit :: !D.full --> D.push(sbit)    (covers retransmission)
    protocol.add_action(data.send(
        "transmit", Predicate::top(),
        [sbit](const StateSpace& sp, StateIndex s) {
            return sp.get(s, sbit);
        }));
    // get_ack :: !A.empty --> accept matching ack, move the window
    protocol.add_action(acks.receive(
        "get_ack", Predicate::top(),
        [sbit, sent, m](const StateSpace& sp, StateIndex s, Value a) {
            if (a != sp.get(s, sbit)) return s;  // stale ack: ignore
            StateIndex t = sp.set(s, sbit, 1 - sp.get(s, sbit));
            return sp.set(t, sent, (sp.get(s, sent) + 1) % m);
        }));
    // deliver :: !D.empty /\ !A.full --> ack it; accept if expected
    protocol.add_action(data.receive(
        "deliver", !acks.is_full(),
        [acks, rbit, delivered, m](const StateSpace& sp, StateIndex s,
                                   Value b) {
            StateIndex t = acks.push(sp, s, b);
            if (b != sp.get(s, rbit)) return t;  // retransmission: ignore
            t = sp.set(t, rbit, 1 - sp.get(t, rbit));
            return sp.set(t, delivered, (sp.get(t, delivered) + 1) % m);
        }));

    FaultClass loss(space, "message-loss");
    loss.add_action(data.lose("lose-D"));
    loss.add_action(acks.lose("lose-A"));

    FaultClass duplication(space, "message-duplication");
    duplication.add_action(data.duplicate("dup-D"));
    duplication.add_action(acks.duplicate("dup-A"));

    FaultClass corruption(space, "message-corruption");
    corruption.add_action(data.corrupt("flip-D"));
    corruption.add_action(acks.corrupt("flip-A"));

    // Safety: exactly-once in-order delivery, phrased over the counters.
    //  - delivered may only step to delivered+1, and only while the
    //    current message is still undelivered (delivered == sent);
    //  - sent may only step to sent+1, and only after delivery
    //    (delivered == sent+1).
    SafetySpec safety(
        "exactly-once-in-order", Predicate::bottom(),
        [sent, delivered, m](const StateSpace& sp, StateIndex from,
                             StateIndex to) {
            const Value s0 = sp.get(from, sent), s1 = sp.get(to, sent);
            const Value d0 = sp.get(from, delivered);
            const Value d1 = sp.get(to, delivered);
            if (d1 != d0) {
                if (d1 != (d0 + 1) % m) return true;  // skipped/duplicated
                if (d0 != s0) return true;            // nothing outstanding
            }
            if (s1 != s0) {
                if (s1 != (s0 + 1) % m) return true;
                if (d0 != (s0 + 1) % m) return true;  // unacked advance
            }
            return false;
        });
    LivenessSpec live;
    for (Value c = 0; c < m; ++c) {
        live.add(LeadsTo{Predicate::var_eq(*space, "sent", c),
                         Predicate::var_eq(*space, "sent", (c + 1) % m)});
    }
    ProblemSpec spec("SPEC_abp", std::move(safety), std::move(live));

    // Bits equal: every sent message was delivered; bits differ: the
    // receiver is one message ahead (mod m).
    Predicate in_sync =
        ((Predicate::vars_eq(*space, sbit, rbit) &&
          Predicate::vars_eq(*space, delivered, sent)) ||
         (Predicate::vars_ne(*space, sbit, rbit) &&
          Predicate::compare(Term::var(*space, delivered),
                             Predicate::NodeKind::kTermEq,
                             Term::var(*space, sent).plus(1, m))))
            .renamed("abp-phase-invariant");

    return AlternatingBitSystem{space,
                                window_mod,
                                std::move(protocol),
                                std::move(loss),
                                std::move(duplication),
                                std::move(corruption),
                                std::move(spec),
                                std::move(in_sync),
                                data,
                                acks,
                                sbit,
                                rbit,
                                sent,
                                delivered};
}

}  // namespace dcft::apps
