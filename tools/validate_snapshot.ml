(* CI gate over the machine-readable telemetry artifacts:

     validate_snapshot trace FILE   — Chrome trace_event file from
                                      `ivm_cli trace`: must parse, carry a
                                      non-empty traceEvents array, and
                                      contain spans for every Algorithm
                                      5.1 phase (net, screen, row, apply);
     validate_snapshot bench FILE   — BENCH_IVM.json from bench/main.exe:
                                      must parse, be schema_version >= 9,
                                      and carry per-view latency
                                      percentiles, advisor
                                      predicted-vs-actual pairs, the E18
                                      per-view domain-scaling curve with
                                      positive speedup fields (where
                                      cores_available does not cover a
                                      domain count the check is skipped
                                      with a printed warning), the E20
                                      resilience section
                                      whose happy-path journaling
                                      overhead must stay within budget
                                      (<= 5%), the E21 self-maintenance
                                      section whose eval-phase reduction
                                      must exceed 1x with every commit on
                                      the certified path, and the E22
                                      provenance section whose always-on
                                      flight-recorder overhead must stay
                                      within the same 5% budget, and the
                                      E24 aggregate section whose
                                      incremental grouped maintenance
                                      must beat full recompute (> 1x),
                                      and the E25 durability section
                                      whose group-commit WAL overhead
                                      must stay within 10% of in-memory
                                      and whose recovery curve must
                                      replay exactly one record per
                                      commit;
     validate_snapshot lint FILE    — report from `ivm_cli lint --json`:
                                      must parse, carry no Error-severity
                                      diagnostics, and prove the
                                      IVM050-IVM059 analysis ran (at
                                      least one IVM05x code present).

   Exits nonzero with a reason on any violation, so tools/check.sh can
   assert that the instrumentation keeps emitting what downstream tooling
   consumes. *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("error: " ^ m); exit 1) fmt

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> contents
  | exception Sys_error m -> fail "%s" m

let parse path =
  match Obs.Json.parse (read_file path) with
  | Ok json -> json
  | Error m -> fail "%s: %s" path m

let require_member name json =
  match Obs.Json.member name json with
  | Some v -> v
  | None -> fail "missing top-level key %S" name

let as_list what = function
  | Obs.Json.List items -> items
  | _ -> fail "%s is not an array" what

let validate_trace path =
  let json = parse path in
  let events = as_list "traceEvents" (require_member "traceEvents" json) in
  if events = [] then fail "traceEvents is empty";
  let names =
    List.filter_map
      (fun event ->
        match Obs.Json.member "name" event with
        | Some (Obs.Json.Str name) -> Some name
        | _ -> None)
      events
  in
  List.iter
    (fun phase ->
      if not (List.mem phase names) then
        fail "no %S span in %s (Algorithm 5.1 phase missing)" phase path)
    [ "net"; "screen"; "row"; "apply" ];
  Printf.printf "ok: %s (%d events, all Algorithm 5.1 phases present)\n" path
    (List.length events)

let validate_bench path =
  let json = parse path in
  let views = as_list "views" (require_member "views" json) in
  if views = [] then fail "views is empty";
  List.iter
    (fun view ->
      let name =
        match Obs.Json.member "name" view with
        | Some (Obs.Json.Str n) -> n
        | _ -> fail "a views[] entry has no name"
      in
      List.iter
        (fun key ->
          if Obs.Json.member key view = None then
            fail "view %S has no %S field" name key)
        [ "p50_ns"; "p95_ns"; "p99_ns"; "commits" ])
    views;
  let advisor = require_member "advisor" json in
  let pairs = as_list "advisor.pairs" (require_member "pairs" advisor) in
  if pairs = [] then fail "advisor.pairs is empty";
  List.iter
    (fun pair ->
      List.iter
        (fun key ->
          if Obs.Json.member key pair = None then
            fail "an advisor pair has no %S field" key)
        [ "predicted_differential"; "predicted_recompute"; "actual_ns"; "used" ])
    pairs;
  ignore (require_member "calibration" advisor);
  ignore (require_member "metrics" json);
  (match require_member "schema_version" json with
  | Obs.Json.Int v when v >= 9 -> ()
  | Obs.Json.Int v ->
    fail "schema_version %d < 9 (E18 per_view parallel curve, E20 \
          resilience, E21 self-maintenance, E22 provenance, E24 aggregate \
          and E25 durability sections required)" v
  | _ -> fail "schema_version is not an integer");
  let parallel = require_member "parallel" json in
  let cores =
    match Obs.Json.member "cores_available" parallel with
    | Some (Obs.Json.Int c) when c >= 1 -> c
    | _ -> fail "parallel.cores_available is not a positive integer"
  in
  (* The curve's shape is always required; whether a speedup is checked
     depends on the hardware — a 1-core CI runner cannot exhibit
     parallel speedup, so every comparison beyond the available cores is
     skipped with a printed warning, never silently.  Where the cores
     exist a speedup need only be positive: its ceiling is
     min(views, domains). *)
  let per_view =
    match Obs.Json.member "per_view" parallel with
    | Some section -> section
    | None -> fail "parallel section has no \"per_view\" sub-section"
  in
  let member key =
    match Obs.Json.member key per_view with
    | Some v -> v
    | None -> fail "parallel.per_view has no %S field" key
  in
  let curve = as_list "parallel.per_view.curve" (member "curve") in
  if curve = [] then fail "parallel.per_view.curve is empty";
  List.iter
    (fun point ->
      List.iter
        (fun key ->
          if Obs.Json.member key point = None then
            fail "a parallel.per_view.curve point has no %S field" key)
        [ "domains"; "elapsed_ns"; "commits_per_sec"; "speedup" ])
    curve;
  List.iter
    (fun (key, domains) ->
      let value =
        match member key with
        | Obs.Json.Float s -> s
        | Obs.Json.Int s -> float_of_int s
        | _ -> fail "parallel.per_view.%s is not a number" key
      in
      if cores < domains then
        Printf.printf
          "warning: parallel.per_view.%s = %.2f skipped — %d core(s) < %d \
           domains, speedup not credible on this machine\n"
          key value cores domains
      else if value <= 0.0 then
        fail "parallel.per_view.%s is not positive" key)
    [ ("speedup_at_2", 2); ("speedup_at_4", 4); ("speedup_at_8", 8) ];
  let resilience = require_member "resilience" json in
  let resilience_member key =
    match Obs.Json.member key resilience with
    | Some v -> v
    | None -> fail "resilience section has no %S field" key
  in
  List.iter
    (fun key ->
      match resilience_member key with
      | Obs.Json.Int ns when ns > 0 -> ()
      | _ -> fail "resilience.%s is not a positive integer" key)
    [ "protected_ns"; "unprotected_ns" ];
  (* Unlike the speedups, the journaling overhead IS thresholded: the
     undo log runs on every protected commit, so the happy path must
     stay within its budget on any hardware. *)
  let max_overhead_pct = 5.0 in
  let overhead =
    match resilience_member "journal_overhead_pct" with
    | Obs.Json.Float pct -> pct
    | Obs.Json.Int pct -> float_of_int pct
    | _ -> fail "resilience.journal_overhead_pct is not a number"
  in
  if overhead > max_overhead_pct then
    fail
      "resilience.journal_overhead_pct %.2f exceeds the %.1f%% happy-path \
       budget"
      overhead max_overhead_pct;
  let selfmaint = require_member "self_maintenance" json in
  let selfmaint_member key =
    match Obs.Json.member key selfmaint with
    | Some v -> v
    | None -> fail "self_maintenance section has no %S field" key
  in
  List.iter
    (fun key ->
      match selfmaint_member key with
      | Obs.Json.Int n when n > 0 -> ()
      | _ -> fail "self_maintenance.%s is not a positive integer" key)
    [
      "commits"; "differential_eval_ns"; "self_maintain_eval_ns";
      "self_maintained_commits";
    ];
  (* The certificate must actually cover the whole delete-only stream
     (every commit on the certified path), and eliminating the base-read
     evaluation phase must show up as a real reduction — the exact factor
     is hardware-dependent, so the gate is > 1x, not a target. *)
  (match (selfmaint_member "commits", selfmaint_member "self_maintained_commits")
   with
  | Obs.Json.Int total, Obs.Json.Int certified when certified <> total ->
    fail "self_maintenance: only %d of %d commits took the certified path"
      certified total
  | _ -> ());
  let reduction =
    match selfmaint_member "eval_reduction" with
    | Obs.Json.Float r -> r
    | Obs.Json.Int r -> float_of_int r
    | _ -> fail "self_maintenance.eval_reduction is not a number"
  in
  if reduction <= 1.0 then
    fail
      "self_maintenance.eval_reduction %.2fx: the certified arm should beat \
       differential evaluation on delete-only streams"
      reduction;
  let provenance = require_member "provenance" json in
  let provenance_member key =
    match Obs.Json.member key provenance with
    | Some v -> v
    | None -> fail "provenance section has no %S field" key
  in
  List.iter
    (fun key ->
      match provenance_member key with
      | Obs.Json.Int n when n > 0 -> ()
      | _ -> fail "provenance.%s is not a positive integer" key)
    [ "capacity"; "recorded"; "recorder_on_ns"; "recorder_off_ns" ];
  (* The flight recorder is always on in production, so — like the E20
     journal — its happy-path cost is thresholded, not just recorded. *)
  let recorder_overhead =
    match provenance_member "recorder_overhead_pct" with
    | Obs.Json.Float pct -> pct
    | Obs.Json.Int pct -> float_of_int pct
    | _ -> fail "provenance.recorder_overhead_pct is not a number"
  in
  if recorder_overhead > max_overhead_pct then
    fail
      "provenance.recorder_overhead_pct %.2f exceeds the %.1f%% always-on \
       budget"
      recorder_overhead max_overhead_pct;
  let aggregate = require_member "aggregate" json in
  let aggregate_member key =
    match Obs.Json.member key aggregate with
    | Some v -> v
    | None -> fail "aggregate section has no %S field" key
  in
  List.iter
    (fun key ->
      match aggregate_member key with
      | Obs.Json.Int n when n > 0 -> ()
      | _ -> fail "aggregate.%s is not a positive integer" key)
    [
      "commits"; "differential_total_ns"; "recompute_total_ns";
      "groups_touched";
    ];
  (* MIN/MAX rescans only fire when an extremum's support drains to zero,
     so zero is a legitimate count — but the field must be present. *)
  (match aggregate_member "rescans" with
  | Obs.Json.Int n when n >= 0 -> ()
  | _ -> fail "aggregate.rescans is not a non-negative integer");
  (* Touching only the groups a batch hits must beat re-grouping the
     whole base relation every commit — the exact factor is
     hardware-dependent, so the gate is > 1x, not a target. *)
  let aggregate_speedup =
    match aggregate_member "speedup" with
    | Obs.Json.Float s -> s
    | Obs.Json.Int s -> float_of_int s
    | _ -> fail "aggregate.speedup is not a number"
  in
  if aggregate_speedup <= 1.0 then
    fail
      "aggregate.speedup %.2fx: incremental grouped maintenance should beat \
       full recompute on small mixed batches"
      aggregate_speedup;
  let durability = require_member "durability" json in
  let durability_member key =
    match Obs.Json.member key durability with
    | Some v -> v
    | None -> fail "durability section has no %S field" key
  in
  List.iter
    (fun key ->
      match durability_member key with
      | Obs.Json.Int n when n > 0 -> ()
      | _ -> fail "durability.%s is not a positive integer" key)
    [ "fsync_every"; "in_memory_ns"; "wal_ns"; "records_replayed_total" ];
  (* Like the E20 journal and E22 recorder, the write-ahead log runs on
     every durable commit, so its happy-path cost is thresholded: group
     commit must keep framing + checksumming + batched fsyncs within
     10% of the in-memory pipeline. *)
  let max_wal_overhead_pct = 10.0 in
  let wal_overhead =
    match durability_member "wal_overhead_pct" with
    | Obs.Json.Float pct -> pct
    | Obs.Json.Int pct -> float_of_int pct
    | _ -> fail "durability.wal_overhead_pct is not a number"
  in
  if wal_overhead > max_wal_overhead_pct then
    fail
      "durability.wal_overhead_pct %.2f exceeds the %.1f%% group-commit \
       budget"
      wal_overhead max_wal_overhead_pct;
  let recovery_curve =
    as_list "durability.recovery_curve" (durability_member "recovery_curve")
  in
  if recovery_curve = [] then fail "durability.recovery_curve is empty";
  List.iter
    (fun point ->
      let point_member key =
        match Obs.Json.member key point with
        | Some v -> v
        | None -> fail "a durability.recovery_curve point has no %S field" key
      in
      List.iter
        (fun key ->
          match point_member key with
          | Obs.Json.Int n when n > 0 -> ()
          | _ ->
            fail "durability.recovery_curve.%s is not a positive integer" key)
        [ "commits"; "recovery_ns"; "records_replayed" ];
      (match point_member "records_per_sec" with
      | Obs.Json.Float r when r > 0.0 -> ()
      | Obs.Json.Int r when r > 0 -> ()
      | _ -> fail "durability.recovery_curve.records_per_sec is not positive");
      (* The curve is built without mid-run checkpoints, so replay must
         touch exactly one record per commit — fewer means the log lost
         records, more means recovery applied something twice. *)
      match (point_member "commits", point_member "records_replayed") with
      | Obs.Json.Int commits, Obs.Json.Int replayed when commits <> replayed ->
        fail
          "durability.recovery_curve: %d commits but %d records replayed \
           (recovery must replay exactly one record per commit)"
          commits replayed
      | _ -> ())
    recovery_curve;
  Printf.printf
    "ok: %s (%d views, %d advisor pairs, per_view scaling curve, journal \
     overhead %+.2f%%, self-maintenance eval reduction %.2fx, recorder \
     overhead %+.2f%%, aggregate speedup %.2fx, wal overhead %+.2f%%, %d \
     recovery points)\n"
    path (List.length views) (List.length pairs) overhead reduction recorder_overhead aggregate_speedup wal_overhead
    (List.length recovery_curve)

(* `ivm_cli lint --json` over the built-in scenarios: parseable, no
   Error-severity diagnostics, and the IVM05x self-maintenance band must
   be present — its silent disappearance would mean the analysis stopped
   running, which no other gate would notice. *)
let validate_lint path =
  let json = parse path in
  let definitions = as_list "definitions" (require_member "definitions" json) in
  if definitions = [] then fail "definitions is empty";
  let diagnostics =
    List.concat_map
      (fun entry ->
        match Obs.Json.member "diagnostics" entry with
        | Some (Obs.Json.List ds) -> ds
        | _ -> fail "a definitions[] entry has no diagnostics array")
      definitions
  in
  List.iter
    (fun d ->
      match (Obs.Json.member "code" d, Obs.Json.member "severity" d) with
      | Some (Obs.Json.Str code), Some (Obs.Json.Str "error") ->
        fail "unexpected Error-level diagnostic %s" code
      | Some (Obs.Json.Str _), Some (Obs.Json.Str _) -> ()
      | _ -> fail "a diagnostic lacks code or severity")
    diagnostics;
  let ivm05 =
    List.filter
      (fun d ->
        match Obs.Json.member "code" d with
        | Some (Obs.Json.Str code) ->
          String.length code >= 5 && String.sub code 0 5 = "IVM05"
        | _ -> false)
      diagnostics
  in
  if ivm05 = [] then
    fail "no IVM05x diagnostics: the self-maintainability analysis did not \
          run over the built-in scenarios";
  (match require_member "summary" json with
  | summary ->
    (match Obs.Json.member "errors" summary with
    | Some (Obs.Json.Int 0) -> ()
    | Some (Obs.Json.Int n) -> fail "summary.errors = %d" n
    | _ -> fail "summary.errors missing"));
  Printf.printf
    "ok: %s (%d definitions, %d diagnostics, %d in the IVM05x band, no \
     errors)\n"
    path (List.length definitions) (List.length diagnostics)
    (List.length ivm05)

let () =
  match Sys.argv with
  | [| _; "trace"; path |] -> validate_trace path
  | [| _; "bench"; path |] -> validate_bench path
  | [| _; "lint"; path |] -> validate_lint path
  | _ ->
    prerr_endline "usage: validate_snapshot (trace|bench|lint) FILE";
    exit 2
