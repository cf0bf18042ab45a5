import os
import random
import threading
from collections import Counter
from itertools import product
from math import prod

import pytest

from recipro import (
    CapacityError,
    DomainError,
    InternalCheckError,
    budget,
    euler_criterion_check,
    factorial_mod,
    first_odd_primes,
    is_prime,
    odd_primes_up_to,
    rank2_quotient_enumerated,
    rank2_quotient_formula,
    residue_arith,
    suites,
    verify_pairs,
    wilson_check,
)
from recipro.suites import (
    EVEN_FACTOR_CHOICES,
    FORCED_EVEN_CASES,
    GROUP_MAX_FACTORS,
    GROUP_MAX_ORDER,
    PAIR_MAX_PRODUCT,
    PAIR_MIN_EXCLUSIVE,
    random_euler_cases,
    random_even_factor_lists,
    random_factor_lists,
    random_prime_pairs,
    run_suite,
)
from _oracles import (
    euler_cases_by_randint,
    even_factor_lists_by_choice,
    factor_lists_by_randint,
    factorial_by_running_product,
    prime_pairs_by_choice,
)
from _processes import no_child_left, refuse_fork, usable_cpus, wrap_everywhere


class TestGenerators:
    def test_factor_lists_deterministic(self):
        assert random_factor_lists(25, 99) == random_factor_lists(25, 99)
        assert random_factor_lists(25, 99) != random_factor_lists(25, 100)

    def test_factor_lists_constraints(self):
        for orders in random_factor_lists(200, 1):
            assert 1 <= len(orders) <= 4
            assert all(1 <= n <= 20 for n in orders)
            assert prod(orders) <= GROUP_MAX_ORDER

    def test_even_lists_constraints(self):
        for orders in random_even_factor_lists(200, 2):
            assert 1 <= len(orders) <= 4
            assert all(n in EVEN_FACTOR_CHOICES for n in orders)
            assert prod(orders) <= 20**4  # 160000, the bound the generator documents

    def test_euler_cases_constraints(self):
        for qv, p in random_euler_cases(100, 3):
            assert is_prime(p) and p % 2 and p <= 2000
            assert 1 <= qv <= 10**6 and qv % p != 0

    def test_prime_pairs_constraints(self):
        for p, q in random_prime_pairs(100, 4):
            assert 200 < p < q
            assert p * q <= 200_000
            assert is_prime(p) and is_prime(q)

    def test_prime_pairs_deterministic(self):
        assert random_prime_pairs(10, 7) == random_prime_pairs(10, 7)

    @pytest.mark.parametrize("seed", [0, 1, 5, -7, 2**70])
    @pytest.mark.parametrize("generator,reference,n", [
        (random_factor_lists, factor_lists_by_randint, 2000),
        (random_even_factor_lists, even_factor_lists_by_choice, 5000),
        (random_euler_cases, euler_cases_by_randint, 5000),
        (random_prime_pairs, prime_pairs_by_choice, 5000),
    ])
    def test_each_generator_draws_what_randint_and_choice_draw(self, generator, reference, n,
                                                               seed):
        assert generator(n, seed) == reference(n, seed)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 20, 302, 10**6, 2**32 + 1])
    def test_below_draws_what_randrange_draws(self, n):
        stdlib, ours = random.Random(n), random.Random(n)
        drawn = [suites._below(ours.getrandbits, n) for _ in range(500)]
        assert drawn == [stdlib.randrange(n) for _ in range(500)]
        assert ours.getstate() == stdlib.getstate()


class TestWholeDomains:
    """Every case the lemma2 and pair generators can draw, enumerated from their
    own constants, so a changed constant widens the check with it."""

    def test_every_even_factor_list_has_the_enumerated_rank(self):
        domain = [orders for k in range(1, GROUP_MAX_FACTORS + 1)
                  for orders in product(EVEN_FACTOR_CHOICES, repeat=k)]
        assert len(domain) == 4680
        assert set(FORCED_EVEN_CASES) | set(random_even_factor_lists(500, 1)) <= set(domain)
        assert [orders for orders in domain
                if rank2_quotient_formula(orders) != rank2_quotient_enumerated(orders)] == []

    def test_every_prime_pair_passes(self):
        primes = odd_primes_up_to(PAIR_MAX_PRODUCT // PAIR_MIN_EXCLUSIVE)
        domain = [(p, q) for p in primes if p > PAIR_MIN_EXCLUSIVE
                  for q in primes if p < q and p * q <= PAIR_MAX_PRODUCT]
        assert len(domain) == 1978
        for seed in (0, 1, 2):
            assert set(random_prime_pairs(500, seed)) <= set(domain)
        verdicts = list(verify_pairs(domain))
        assert [(v.p, v.q) for v in verdicts] == domain
        assert [v for v in verdicts if not v.all_pass] == []


def perturb_residues(monkeypatch, bad_moduli):
    """Make factorial_residues answer (r + 1) mod m wherever m is in bad_moduli,
    for the suites and for residue_arith's own callers alike."""
    batched = residue_arith.factorial_residues

    def faulty(points):
        points = list(points)
        return [
            (r + 1) % m if m in bad_moduli else r for (_, m), r in zip(points, batched(points))
        ]

    monkeypatch.setattr(residue_arith, "factorial_residues", faulty)
    monkeypatch.setattr(suites, "factorial_residues", faulty)


def perturb_running_products(monkeypatch, bad_moduli, faulty_step):
    """Make residue_arith._block_products answer (r + 1) mod m wherever m is in
    bad_moduli, in the calls whose step satisfies faulty_step."""
    exact = residue_arith._block_products

    def faulty(step, points, acc, done):
        return [
            (r + 1) % m if faulty_step(step) and m in bad_moduli else r
            for (_, m), r in zip(points, exact(step, points, acc, done))
        ]

    monkeypatch.setattr(residue_arith, "_block_products", faulty)


class TestOneRunningProduct:
    # Factorials take the one running product with step 1, euler left sides with
    # a step = q (mod p), so a fault in one kind of call shows which checks read
    # it.  The same fault in every call could cancel in the euler identity, which
    # compares two outputs of the loop, so no test makes one.
    BAD = (3, 67, 101, 1051, 1993, 1999)

    def assert_euler_fails_where_p_is_bad(self):
        cases = random_euler_cases(500, 1)
        # a lone lane with q = 1 (mod p) has step 1, like a factorial
        assert all(qv % p != 1 for qv, p in cases if p in self.BAD)
        expected = [f"q={qv} p={p}" for qv, p in cases if p in self.BAD]
        assert 0 < len(expected) <= 20
        assert [f"q={qv} p={p}" for qv, p in cases if not euler_criterion_check(qv, p)] == expected
        result = run_suite("euler", 500, 1)
        assert (result.n_fail, result.failures) == (len(expected), tuple(expected))

    def test_factorial_fault_reaches_wilson_and_euler_right_sides(self, monkeypatch):
        perturb_running_products(monkeypatch, self.BAD, lambda step: step == 1)
        exact = factorial_by_running_product
        wrong = [m for m in range(2, 2000) if factorial_mod(20, m) != exact(20, m)]
        assert wrong == sorted(self.BAD)
        primes = first_odd_primes(300)
        expected = [f"p={p}" for p in primes if p in self.BAD]
        assert len(expected) == 5
        assert [f"p={p}" for p in primes if not wilson_check(p)] == expected
        result = run_suite("wilson", 300, 0)
        assert (result.n_fail, result.failures) == (len(expected), tuple(expected))
        self.assert_euler_fails_where_p_is_bad()

    def test_multiple_fault_reaches_only_euler_left_sides(self, monkeypatch):
        perturb_running_products(monkeypatch, self.BAD, lambda step: step != 1)
        exact = factorial_by_running_product
        assert all(factorial_mod(20, m) == exact(20, m) for m in range(2, 2000))
        assert all(map(wilson_check, first_odd_primes(300)))
        assert run_suite("wilson", 300, 0).all_pass
        self.assert_euler_fails_where_p_is_bad()


class TestRemainderTreeCarry:
    """The wilson suite's 300 points are cut into blocks of 16 (19 blocks);
    each block but the last carries the exact product of the integers it
    spans, one math.perm, to every later block."""

    @pytest.mark.parametrize("bad_block", [0, 5, 17])
    def test_carry_fault_fails_exactly_the_later_primes(self, monkeypatch, bad_block):
        primes, block = first_odd_primes(300), residue_arith._BLOCK
        # block 0 starts at the least n, 3 - 1; every later block after the
        # last n, p - 1, of the block before it
        starts = [primes[0] - 1] + [p - 1 for p in primes[block - 1 :: block]]
        exact = residue_arith.perm
        monkeypatch.setattr(
            residue_arith, "perm", lambda n, k: exact(n, k) + (n - k == starts[bad_block])
        )
        later = [f"p={p}" for p in primes[block * (bad_block + 1) :]]
        result = run_suite("wilson", 300, 0)
        assert (result.n_fail, result.failures) == (len(later), tuple(later[:20]))


class TestRunners:
    def test_lemma1(self):
        result = run_suite("lemma1", 30, 5)
        assert result.all_pass and result.total == 30

    def test_lemma1_fails_where_the_sum_is_moved(self, monkeypatch):
        # adding 1 to the first coordinate moves the sum unless that factor is trivial
        exact = suites.sum_all_elements
        monkeypatch.setattr(
            suites, "sum_all_elements",
            lambda G: ((exact(G)[0] + 1) % G.factor_orders[0], *exact(G)[1:]),
        )
        expected = [f"orders={orders}" for orders in random_factor_lists(200, 5) if orders[0] > 1]
        assert 20 < len(expected) < 200
        result = run_suite("lemma1", 200, 5)
        # every failure is counted; the first 20, in case order, are described
        assert (result.n_pass, result.n_fail) == (200 - len(expected), len(expected))
        assert result.failures == tuple(expected[:20])

    def test_lemma1_fails_where_the_two_torsion_is_read(self, monkeypatch):
        # only rank-1 cases (exactly one even factor) consult the two-torsion
        expected = sum(
            1 for orders in random_factor_lists(200, 5)
            if sum(n % 2 == 0 for n in orders) == 1
        )
        assert 0 < expected < 200
        # one zero tuple, then two: the right size but no nontrivial element
        for copies in (1, 2):
            monkeypatch.setattr(
                suites, "two_torsion_subgroup", lambda G: [(0,) * len(G.factor_orders)] * copies,
            )
            assert run_suite("lemma1", 200, 5).n_fail == expected, copies

    def test_lemma2_fails_where_the_enumerated_rank_is_moved(self, monkeypatch):
        exact = suites.rank2_quotient_enumerated
        monkeypatch.setattr(
            suites, "rank2_quotient_enumerated",
            lambda orders: exact(orders) + (len(orders) == 2),
        )
        cases = list(FORCED_EVEN_CASES) + random_even_factor_lists(198, 7)
        expected = [f"orders={orders}" for orders in cases if len(orders) == 2]
        assert expected[:2] == ["orders=(4, 4)", "orders=(2, 4)"] and 20 < len(expected) < 200
        result = run_suite("lemma2", 200, 7)
        assert (result.n_pass, result.n_fail) == (200 - len(expected), len(expected))
        assert result.failures == tuple(expected[:20])

    def test_lemma2_includes_forced_cases(self):
        result = run_suite("lemma2", 10, 7)
        assert result.all_pass and result.total == 10
        # the first two cases are always the forced ones
        short = run_suite("lemma2", 2, 7)
        assert short.total == len(FORCED_EVEN_CASES) == 2

    def test_euler(self):
        assert run_suite("euler", 20, 1).all_pass

    def test_euler_tests_each_distinct_prime_once(self, monkeypatch):
        calls = []
        original = residue_arith.is_prime
        monkeypatch.setattr(residue_arith, "is_prime", lambda n: calls.append(n) or original(n))
        assert run_suite("euler", 500, 1).all_pass
        assert calls == list(dict.fromkeys(p for _, p in random_euler_cases(500, 1)))

    def test_euler_composite_p_raises_before_any_factorial(self, monkeypatch):
        factorials, lanes = [], []
        monkeypatch.setattr(suites, "random_euler_cases", lambda n_cases, seed: [(5, 9)])
        monkeypatch.setattr(
            residue_arith, "factorial_residues", lambda points: factorials.append(points) or [],
        )
        monkeypatch.setattr(
            residue_arith, "_products_of_multiples", lambda batch: lanes.append(batch) or [],
        )
        with pytest.raises(DomainError, match="^9 is not prime$"):
            run_suite("euler", 1, 0)
        assert factorials == lanes == []

    def test_euler_batches_distinct_ascending_primes_one_lane_per_case(self, monkeypatch):
        # one usable CPU keeps every batch in this process, where they are recorded
        usable_cpus(monkeypatch, 1)
        batches = []
        batched = residue_arith._products_of_multiples
        monkeypatch.setattr(
            residue_arith, "_products_of_multiples",
            lambda lanes: batches.append(lanes) or batched(lanes),
        )
        assert run_suite("euler", 10000, 1).all_pass
        for lanes in batches:
            primes = [p for _, p in lanes]
            assert 1 <= len(lanes) <= 16
            assert all(a < b for a, b in zip(primes, primes[1:])), primes
        assert max(map(len, batches)) == 16
        cases = random_euler_cases(10000, 1)
        assert Counter(lane for lanes in batches for lane in lanes) == Counter(
            (qv % p, p) for qv, p in cases
        )

    def test_wilson(self):
        result = run_suite("wilson", 10, 0)
        assert result.all_pass and result.total == 10

    def test_wilson_refuses_26_primes_under_factorial_cap_of_100(self, monkeypatch):
        # with a cap of 100 the largest p checked is 101, the 25th odd prime;
        # the 26th, 103, needs 102! and factorial_residues refuses the batch
        monkeypatch.setattr(budget, "FACTORIAL_LOOP_CAP", 100)
        checked = []
        batched = suites.factorial_residues
        monkeypatch.setattr(
            suites, "factorial_residues",
            lambda points: checked.extend(m for _, m in points) or batched(points),
        )
        result = run_suite("wilson", 25, 0)
        assert result.all_pass and result.total == 25
        assert checked[-1] == 101
        with pytest.raises(CapacityError, match="factorial loop needs 102 steps"):
            run_suite("wilson", 26, 0)

    @pytest.mark.parametrize("bad", [(), (3, 101, 1051, 1993)])
    def test_wilson_matches_per_case_checks(self, bad, monkeypatch):
        # the same residue fault, if any, reaches both routes: the suite's one
        # batched call and wilson_check's factorial_mod
        perturb_residues(monkeypatch, bad)
        failures = [f"p={p}" for p in first_odd_primes(300) if not wilson_check(p)]
        assert len(failures) == len(bad)
        result = run_suite("wilson", 300, 0)
        assert (result.n_pass, result.failures) == (300 - len(failures), tuple(failures))

    @pytest.mark.parametrize("bad", [(), (3, 1999, 1051, 101, 67)])
    def test_euler_matches_per_case_checks(self, bad, monkeypatch):
        perturb_residues(monkeypatch, bad)
        failures = [
            f"q={qv} p={p}" for qv, p in random_euler_cases(500, 1)
            if not euler_criterion_check(qv, p)
        ]
        assert (len(failures) > 0) == (len(bad) > 0)
        result = run_suite("euler", 500, 1)
        assert (result.n_pass, result.failures) == (500 - len(failures), tuple(failures[:20]))

    @pytest.mark.parametrize("bad", [(), (3, 1999, 1051, 101, 67)])
    def test_euler_left_side_fault_matches_per_case_checks(self, bad, monkeypatch):
        # a lane fault reaches euler_criterion_check's one-lane call and the
        # suite's batches alike, and fails exactly the cases with p in bad
        batched = residue_arith._products_of_multiples

        def faulty(lanes):
            return [
                (left + 1) % p if p in bad else left
                for (_, p), left in zip(lanes, batched(lanes))
            ]

        monkeypatch.setattr(residue_arith, "_products_of_multiples", faulty)
        cases = random_euler_cases(500, 1)
        failures = [f"q={qv} p={p}" for qv, p in cases if not euler_criterion_check(qv, p)]
        assert failures == [f"q={qv} p={p}" for qv, p in cases if p in bad]
        assert (len(failures) > 0) == (len(bad) > 0)
        result = run_suite("euler", 500, 1)
        assert (result.n_pass, result.failures) == (500 - len(failures), tuple(failures[:20]))

    @pytest.mark.parametrize("which,n,seed", [("wilson", 25, 0), ("euler", 40, 1)])
    def test_batched_residue_fault_fails_every_case(self, which, n, seed, monkeypatch):
        batched = residue_arith.factorial_residues
        for module in (residue_arith, suites):
            monkeypatch.setattr(
                module, "factorial_residues",
                lambda points: [r + 1 for r in batched(points)],
            )
        result = run_suite(which, n, seed)
        assert result.n_fail == n and len(result.failures) == min(n, 20)
        # the failures kept are the first 20, in case order
        cases = (
            [f"p={p}" for p in first_odd_primes(n)] if which == "wilson"
            else [f"q={qv} p={p}" for qv, p in random_euler_cases(n, seed)]
        )
        assert result.failures == tuple(cases[:20])

    def test_wilson_at_the_case_cap_stays_within_the_factorial_cap(self):
        # the largest admitted wilson request never reaches the factorial cap
        primes = first_odd_primes(budget.SUITE_CASE_CAP)
        assert primes[-1] - 1 <= budget.FACTORIAL_LOOP_CAP

    @pytest.mark.parametrize(
        "which,generator",
        [("lemma1", "random_factor_lists"), ("lemma2", "random_even_factor_lists"),
         ("euler", "random_euler_cases"), ("wilson", "first_odd_primes")],
    )
    def test_oversized_request_draws_nothing(self, which, generator, monkeypatch):
        drawn = []
        monkeypatch.setattr(suites, generator, lambda *args, **kwargs: drawn.append(args) or [])
        with pytest.raises(CapacityError, match=f"{which} suite needs 100001 cases"):
            run_suite(which, budget.SUITE_CASE_CAP + 1, 0)
        assert drawn == []
        # at the cap the request is admitted and reaches the (stubbed) generator
        run_suite(which, budget.SUITE_CASE_CAP, 0)
        assert len(drawn) == 1

    def test_suite_case_cap_leaves_headroom(self):
        # the largest n any test, README example or benchmark workload asks for is 10,000
        assert budget.SUITE_CASE_CAP >= 10 * 10_000

    def test_unknown_suite(self):
        with pytest.raises(DomainError):
            run_suite("lemma9", 5, 0)

    @pytest.mark.parametrize(
        "which,n_cases,generator",
        [("lemma1", 0, "random_factor_lists"), ("wilson", True, "first_odd_primes"),
         ("lemma1", 2.5, "random_factor_lists"), ("euler", "3", "random_euler_cases"),
         ("lemma2", None, "random_even_factor_lists")],
    )
    def test_bad_case_count(self, which, n_cases, generator, monkeypatch):
        # a bool or non-int count is refused like a zero one, before any case is drawn
        drawn = []
        monkeypatch.setattr(suites, generator, lambda *args, **kwargs: drawn.append(args) or [])
        with pytest.raises(DomainError, match="^n_cases must be "):
            run_suite(which, n_cases, 0)
        assert drawn == []


# lemma1 at 2000 cases reads 3,575,324 coordinates and euler at 10,000 cases
# takes 4,555,588 lane multiples, both over the bound at which a suite splits
SPLIT_CALLS = [("lemma1", 2000, 1), ("euler", 10000, 1)]


class TestTwoProcesses:
    def test_split_matches_one_process_with_failures_on_both_sides(self, monkeypatch, tmp_path):
        # each fault writes the id of the process it ran in, which a forked child cannot return
        faults = tmp_path / "faults"
        cases = random_factor_lists(2000, 1)
        bad_orders = {cases[i] for i in (0, 1, 2, 3, 1000, 1001, 1998, 1999)}
        exact_sum = suites.sum_all_elements

        def faulty_sum(G):
            a = exact_sum(G)
            if G.factor_orders not in bad_orders:
                return a
            with open(faults, "a") as f:
                f.write(f"{os.getpid()}\n")
            return ((a[0] + 1) % G.factor_orders[0], *a[1:])

        ascending = sorted({p for _, p in random_euler_cases(10000, 1)})
        bad_primes = {ascending[0], ascending[16], ascending[-1]}
        batched = residue_arith._products_of_multiples

        def faulty_lanes(lanes):
            lefts = batched(lanes)
            if not bad_primes.isdisjoint(p for _, p in lanes):
                with open(faults, "a") as f:
                    f.write(f"{os.getpid()}\n")
            return [(left + 1) % p if p in bad_primes else left
                    for (_, p), left in zip(lanes, lefts)]

        monkeypatch.setattr(suites, "sum_all_elements", faulty_sum)
        monkeypatch.setattr(residue_arith, "_products_of_multiples", faulty_lanes)
        for call in SPLIT_CALLS:
            usable_cpus(monkeypatch, 1)
            faults.write_text("")
            one = run_suite(*call)
            assert set(faults.read_text().split()) == {str(os.getpid())}
            usable_cpus(monkeypatch, 2)
            faults.write_text("")
            two = run_suite(*call)
            no_child_left()
            assert len(set(faults.read_text().split())) == 2, call
            assert one.n_fail > 0 and two == one, call

    # how the child fails, and the exit code the parent sees: its check calls
    # os._exit(3) or raises (code 1); it sends every flag but its os._exit is
    # made to give 5; or its check raises but its os._exit is made to give 0
    @pytest.mark.parametrize("call", SPLIT_CALLS)
    @pytest.mark.parametrize("death,code", [
        ("exit", 3), ("raise", 1), ("exit 5 after sending", 5), ("raise, then exit 0", 0),
    ])
    def test_a_child_that_dies_is_an_internal_check_error(self, call, death, code, monkeypatch):
        usable_cpus(monkeypatch, 2)
        parent, real_exit = os.getpid(), os._exit
        if death in ("exit 5 after sending", "raise, then exit 0"):
            monkeypatch.setattr(os, "_exit", lambda status: real_exit(code))
        module, name = {"lemma1": (suites, "sum_all_elements"),
                        "euler": (residue_arith, "_products_of_multiples")}[call[0]]
        exact = getattr(module, name)

        def dying(arg):
            if os.getpid() != parent and death != "exit 5 after sending":
                if death == "exit":
                    real_exit(3)
                raise ZeroDivisionError("a fault in the child")
            return exact(arg)

        monkeypatch.setattr(module, name, dying)
        with pytest.raises(InternalCheckError, match=f"exited with code {code} after sending"):
            run_suite(*call)
        no_child_left()

    @pytest.mark.parametrize("why", ["a second thread", "one CPU", "work under the bound",
                                     "a wrapped callee"])
    def test_fork_is_not_called(self, why, monkeypatch):
        usable_cpus(monkeypatch, 1 if why == "one CPU" else 2)
        refuse_fork(monkeypatch)
        if why == "a wrapped callee":
            # a public name: the euler call, which never reaches it, stays in one process too
            wrap_everywhere(monkeypatch, suites.sum_all_elements)
        calls = SPLIT_CALLS
        if why == "work under the bound":
            # 924,887 lane multiples and 147,634 coordinate reads
            calls = [("euler", 2000, 1), ("lemma1", 100, 1)]
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait, args=(30,))
        if why == "a second thread":
            thread.start()
        try:
            assert all(run_suite(*call).all_pass for call in calls)
        finally:
            stop.set()
            if thread.is_alive():
                thread.join(timeout=30)
        assert not thread.is_alive()

    def test_a_failed_fork_checks_every_item_here(self, monkeypatch):
        usable_cpus(monkeypatch, 2)

        def no_processes():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_processes)
        assert all(run_suite(*call).all_pass for call in SPLIT_CALLS)
