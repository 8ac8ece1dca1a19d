"""Tests for the flight recorder: bounded log, causal chains, counters."""

from repro.observability.events import Event, EventLog


class TestEmit:
    def test_seq_is_monotone_and_counts_per_kind(self):
        log = EventLog()
        first = log.emit("fault.injected", kind_of="crash")
        second = log.emit("session.abort")
        third = log.emit("fault.injected")
        assert (first.seq, second.seq, third.seq) == (1, 2, 3)
        assert log.counters() == {"fault.injected": 2,
                                  "session.abort": 1}

    def test_every_append_is_counted_globally(self):
        before = Event.appended
        log = EventLog()
        log.emit("a")
        log.emit("b")
        assert Event.appended == before + 2

    def test_session_context_stamps_events(self):
        log = EventLog()
        outside = log.emit("x")
        with log.session("trial-3"):
            inside = log.emit("y")
            with log.session("trial-3/retry"):
                nested = log.emit("z")
            after_nested = log.emit("w")
        assert outside.session is None
        assert inside.session == "trial-3"
        assert nested.session == "trial-3/retry"
        assert after_nested.session == "trial-3"
        assert log.emit("v").session is None

    def test_explicit_session_and_span_win(self):
        log = EventLog()
        with log.session("ambient"):
            event = log.emit("x", session="explicit", span=42)
        assert event.session == "explicit"
        assert event.span == 42


class TestBounding:
    def test_ring_buffer_drops_oldest_and_counts_drops(self):
        log = EventLog(maxlen=3)
        for index in range(5):
            log.emit("tick", index=index)
        assert len(log) == 3
        assert log.dropped == 2
        assert [event.seq for event in log.events] == [3, 4, 5]
        # Per-kind counters survive eviction.
        assert log.counters() == {"tick": 5}


class TestCausalChain:
    def _chained_log(self) -> EventLog:
        log = EventLog()
        fault = log.emit("fault.injected", location="ls1")
        abort = log.emit("session.abort", cause=fault.seq)
        compensate = log.emit("recovery.compensate", cause=abort.seq)
        replan = log.emit("recovery.replan", cause=compensate.seq)
        log.emit("run.verdict", cause=replan.seq, status="completed")
        return log

    def test_chain_walks_back_to_the_fault(self):
        log = self._chained_log()
        verdict = log.find("run.verdict")[0]
        chain = log.causal_chain(verdict.seq)
        assert [event.kind for event in chain] == [
            "fault.injected", "session.abort", "recovery.compensate",
            "recovery.replan", "run.verdict"]

    def test_chain_truncates_at_evicted_links(self):
        log = EventLog(maxlen=2)
        root = log.emit("fault.injected")
        middle = log.emit("session.abort", cause=root.seq)
        tail = log.emit("run.verdict", cause=middle.seq)  # evicts root
        chain = log.causal_chain(tail.seq)
        assert [event.kind for event in chain] == [
            "session.abort", "run.verdict"]

    def test_chain_of_unknown_seq_is_empty(self):
        assert self._chained_log().causal_chain(999) == []


class TestRebaseline:
    def test_rebaseline_zeroes_counters_but_keeps_events(self):
        log = EventLog()
        log.emit("compile.contract")
        log.emit("compile.contract")
        assert log.counters() == {"compile.contract": 2}
        log.rebaseline()
        assert log.counters() == {}
        assert len(log) == 2
        log.emit("compile.contract")
        assert log.counters() == {"compile.contract": 1}

    def test_reset_restarts_sequences(self):
        log = EventLog()
        log.emit("a")
        log.reset()
        assert len(log) == 0 and log.counters() == {}
        assert log.emit("b").seq == 1
