"""Self-check of the output checks: each must pass on the program's true
output and fail once its reference value is perturbed, so none passes
vacuously. Takes about ten seconds; exits nonzero if any check misbehaves.
"""

import monitor
import reference
import studies
from bootstrap import OUT


def _monitor_cases(seqdr):
    from seqdr.cli import main

    lines = monitor.stream_csv(seqdr, 0, 0)
    piped = monitor.piped_round(lines)[3]
    text = piped.decode()
    rho = reference.mixture_rho(monitor.ALPHA, monitor.OPT_T)
    n = monitor.N_ROWS

    rows = text.splitlines()
    last = rows[-1].split(",")
    psi, radius = float(last[3]), float(last[6])
    wide = ",".join(last[:4] + ["%.9g" % (psi - 1.5 * radius)] + last[5:])
    miscounted = ",".join(last[:1] + [str(int(last[1]) + 1)] + last[2:])

    path = OUT / "monitor-in.csv"
    path.write_text("".join(lines))
    monitor.in_process(main, path, OUT / "monitor-plain.csv")
    plain = (OUT / "monitor-plain.csv").read_bytes()
    flipped = plain[:-2] + bytes([plain[-2] ^ 1]) + plain[-1:]

    def rows_ok(t, alpha=monitor.ALPHA):
        return reference.check_monitor_rows(t, n, alpha, rho)[0]

    def swap_last(row):
        return "\n".join(rows[:-1] + [row]) + "\n"

    return [
        ("monitor radius formula (alpha 0.05)", rows_ok(text), rows_ok(text, 0.05)),
        ("monitor half-widths (lower moved)", rows_ok(text), rows_ok(swap_last(wide))),
        ("monitor T + T' = t (T + 1)", rows_ok(text), rows_ok(swap_last(miscounted))),
        ("replay byte identity (one bit flipped)", plain == piped, flipped == piped),
    ]


def _study_cases(seqdr):
    _, light = studies.build(seqdr, "study_randomized_light")
    sc = studies.scenario(seqdr, "randomized_ate", 0, 0)
    summ = {k: v[0] for k, v in seqdr.run_ate_study(sc, light, reps=1).items()}
    cases = []
    for name in ("linear", "mean_only"):
        point, log, (x, a, y, pi) = studies.replay(seqdr, light[name], sc)

        def aipw(est, var):
            return reference.check_aipw(est, var, x, a, y, pi, log, name)[0]

        cases.append((f"{name} AIPW estimate (+1e-6)",
                      aipw(point.estimate, point.var_hat) and
                      point.estimate == summ[name].final_estimate,
                      aipw(point.estimate + 1e-6, point.var_hat)))
        cases.append((f"{name} AIPW variance (x (1 + 1e-6))",
                      aipw(point.estimate, point.var_hat),
                      aipw(point.estimate, point.var_hat * (1 + 1e-6))))

    def ipw(est, a, y, pi):
        return reference.check_ipw(est, a, y, pi)[0]

    _, a, y, pi = seqdr.generate_stream(sc, 0)
    est = summ["unadjusted"].final_estimate
    cases.append(("randomized IPW (arms swapped)", ipw(est, a, y, pi), ipw(est, 1 - a, y, pi)))

    obs_sc = studies.scenario(seqdr, "observational_ate", 0, 0)
    obs = {"mean_only": seqdr.EngineConfig(boundary=seqdr.default_boundary(0.1),
                                           mode="observational",
                                           learner=seqdr.LearnerSpec("mean_only")),
           "unadjusted": "unadjusted"}
    est = seqdr.run_ate_study(obs_sc, obs, reps=1)["unadjusted"][0].final_estimate
    _, a, y, _ = seqdr.generate_stream(obs_sc, 0)
    cases.append(("observational IPW (arms swapped)", ipw(est, a, y, None),
                  ipw(est, 1 - a, y, None)))

    mean_only = {"mean_only": light["mean_only"], "unadjusted": "unadjusted"}
    finals = [seqdr.run_ate_study(studies.scenario(seqdr, "randomized_ate", 0, r), mean_only,
                                  reps=1)["mean_only"][0].final_estimate for r in range(8)]
    cases.append(("centring on psi (psi + 0.5)",
                  reference.check_centered(finals, studies.PSI)[0],
                  reference.check_centered(finals, studies.PSI + 0.5)[0]))
    return cases


def main(seqdr):
    cases = _monitor_cases(seqdr) + _study_cases(seqdr)
    good = True
    for name, passes, perturbed_passes in cases:
        verdict = "ok" if passes and not perturbed_passes else "BROKEN"
        good &= verdict == "ok"
        print(f"{verdict:6s} {name}: true reference {'passes' if passes else 'FAILS'}, "
              f"perturbed {'PASSES' if perturbed_passes else 'fails'}")
    print("self-check " + ("passed" if good else "FAILED"))
    return 0 if good else 1
