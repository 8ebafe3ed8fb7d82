(* Closed-loop commit benchmark over Ivm.Manager.

   One client commits one transaction at a time with the write-ahead log
   on, then a fresh manager recovers from the log.  Everything is measured
   from outside: the benchmark times calls into public functions and reads
   what those calls return.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 --dir DIR

   [--trace 0] reports the end-to-end metrics; [--trace 1] is the separate
   traced run that reports per-layer metrics.  [DIR] is a scratch
   directory for the logs (created, and removed on exit).  The last line
   of standard output is one JSON object; see README.md.

     main.exe --workload NAME --restart DIR --out FILE

   is the restart the end-to-end run measures, in a process of its own:
   it recovers from the log in [DIR], prints its wall seconds and the
   records it replayed, and writes the recovered state to [FILE]. *)

open Relalg
module Manager = Ivm.Manager
module Maintenance = Ivm.Maintenance
module Advisor = Ivm.Advisor
module View = Ivm.View
module Irrelevance = Ivm.Irrelevance
module Delta = Ivm.Delta
module W = Commitbench.Workloads
module Names = Commitbench.Metric_names
module Rng = Workload.Rng

(* --- arguments --------------------------------------------------------- *)

type args = {
  workload : W.t;
  seed : int;
  seconds : float;
  trace : bool;
  dir : string;
}

type mode =
  | Run of args
  | Restart of { workload : W.t; dir : string; out : string }

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 --dir DIR\n\
    \       main.exe --workload NAME --restart DIR --out FILE";
  exit 2

let parse_args () =
  let rec go acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--"
      ->
      go ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let workload =
    match W.find (get "workload") with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload: " ^ get "workload");
      exit 2
  in
  if List.mem_assoc "restart" kv then
    Restart { workload; dir = get "restart"; out = get "out" }
  else
    match
      ( int_of_string_opt (get "seed"),
        float_of_string_opt (get "seconds"),
        get "trace" )
    with
    | Some seed, Some seconds, ("0" | "1") when seconds > 0.0 ->
      Run { workload; seed; seconds; trace = get "trace" = "1"; dir = get "dir" }
    | _ -> usage ()

(* --- helpers ----------------------------------------------------------- *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

let median xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted ->
    let n = List.length sorted in
    if n mod 2 = 1 then List.nth sorted (n / 2)
    else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.0

(* Nearest-rank percentile [p] (0–100) of a sorted array; nan when
   empty, which run.py rejects. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let copy_file src dst =
  let ic = open_in_bin src in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc contents;
  close_out oc

let mkdir_p dir = if not (Sys.file_exists dir) then Unix.mkdir dir 0o755

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

(* --- set-up and restart ------------------------------------------------ *)

let durability dir =
  Durability.Config.make
    ~fsync:(Durability.Config.Every W.fsync_every)
    ~checkpoint_every:W.checkpoint_every dir

let wal_path dir = Durability.Config.wal_path (durability dir)
let checkpoint_path dir = Durability.Config.checkpoint_path (durability dir)

let define_views (w : W.t) mgr =
  List.iter
    (fun (v : W.view) ->
      ignore (Manager.define_view mgr ~name:v.W.view_name ~options:W.adaptive v.W.expr))
    w.W.views

(* Scenario build, view definition (analysis + materialization) and the
   baseline checkpoint: what [setup_s] measures. *)
let setup ?domains (w : W.t) ~seed ~dir =
  rm_rf dir;
  let sc = w.W.build (Rng.make seed) in
  let mgr =
    Manager.create
      ~domains:(Option.value domains ~default:w.W.domains)
      ~flight_dir:dir ~durability:(durability dir) sc.Workload.Scenario.db
  in
  define_views w mgr;
  Manager.checkpoint mgr;
  (sc, mgr)

(* A restart over [dir]: fresh manager over relations with no rows, views
   defined, Manager.recover.  Returns the manager, the recovery report and
   the wall seconds. *)
let restart (w : W.t) ~dir =
  let db = w.W.empty () in
  let (mgr, info), seconds =
    time (fun () ->
        let mgr =
          Manager.create ~domains:w.W.domains ~flight_dir:dir
            ~durability:(durability dir) db
        in
        define_views w mgr;
        (mgr, Manager.recover mgr))
  in
  (mgr, info, seconds)

(* The restart mode: run as a child process by [child_restart]. *)
let restart_main (w : W.t) ~dir ~out =
  let mgr, info, seconds = restart w ~dir in
  Durability.Checkpoint.write out (Manager.capture_state mgr);
  Printf.printf "%.17g %d\n%!" seconds info.Manager.records_replayed

(* [child_restart w ~dir ~out] restarts over [dir] in a fresh process,
   as a real restart would, and waits for it.  Returns the restart's wall
   seconds and replayed records, or [None] when the child failed. *)
let child_restart (w : W.t) ~dir ~out =
  let r, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [|
        Sys.executable_name; "--workload"; w.W.name; "--restart"; dir; "--out"; out;
      |]
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr r in
  let line = try input_line ic with End_of_file -> "" in
  close_in ic;
  match (snd (Unix.waitpid [] pid), String.split_on_char ' ' line) with
  | Unix.WEXITED 0, [ seconds; replayed ] ->
    Some (float_of_string seconds, int_of_string replayed)
  | _ -> None

let copy_log ~src ~dst =
  rm_rf dst;
  mkdir_p dst;
  copy_file (wal_path src) (wal_path dst);
  copy_file (checkpoint_path src) (checkpoint_path dst)

(* --- the closed loop --------------------------------------------------- *)

(* One checkpoint cycle: transactions are generated, and throughput and
   telemetry are sampled, a cycle at a time. *)
let block_size = W.checkpoint_every
let min_commits = 1_000

(* [drive ~seconds stream commit] feeds the stream to [commit], which
   commits one transaction and returns its wall seconds.  Transactions are
   generated [block_size] at a time before they are committed, outside
   every timed region.  The loop stops once [seconds] of commit time and
   [min_commits] commits are reached (or the wall budget is spent), then
   runs on until the WAL tail holds exactly [W.tail_records] records, so
   every run recovers the same tail length.  Returns the commit count, the
   measured seconds and the commit seconds of every whole window of
   [block_size] commits (each window holds exactly one checkpoint). *)
let drive ~seconds stream commit =
  let budget = Float.min (3.0 *. seconds) 110.0 in
  let wall0 = now () in
  let measured = ref 0.0 and n = ref 0 in
  let window = ref 0.0 and windows = ref [] in
  let queue = ref [] in
  let running () =
    (!measured < seconds || !n < min_commits) && now () -. wall0 < budget
  in
  while running () || !n mod W.checkpoint_every <> W.tail_records do
    (match !queue with
    | [] -> queue := W.block stream block_size
    | _ -> ());
    match !queue with
    | txn :: rest ->
      queue := rest;
      let dt = commit !n txn in
      measured := !measured +. dt;
      window := !window +. dt;
      incr n;
      if !n mod block_size = 0 then begin
        windows := !window :: !windows;
        window := 0.0
      end
    | [] -> assert false
  done;
  (!n, !measured, !windows)

(* --- output ------------------------------------------------------------ *)

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let emit ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, value) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (json_float value) (Names.unit_of name))
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed body

let note fmt = Printf.printf (fmt ^^ "\n%!")

(* --- end-to-end run ---------------------------------------------------- *)

(* Seconds of wall time between restarts measured during the loop. *)
let restart_every = 3.0

(* [repeat f] runs [f k] for k = 0, 1, ... and returns the results: at
   least 7 times, then until 3 s have been spent or 40 runs made, so a
   cheap set-up gets more samples behind its median. *)
let repeat f =
  let t0 = now () in
  let rec go k acc =
    if k >= 40 || (k >= 7 && now () -. t0 >= 3.0) then List.rev acc
    else go (k + 1) (f k :: acc)
  in
  go 0 []

let plain args =
  let w = args.workload in
  let live_dir = Filename.concat args.dir "live" in
  let kept = ref None in
  let setup_times =
    repeat (fun _ ->
        kept := None;
        Gc.full_major ();
        let r, dt = time (fun () -> setup w ~seed:args.seed ~dir:live_dir) in
        kept := Some r;
        dt)
  in
  let sc, mgr = Option.get !kept in
  let stream = W.stream w ~seed:args.seed sc in
  Gc.full_major ();
  let latencies = ref [] and failed_commits = ref 0 in
  let wal_bytes = ref 0 and frames = ref 0 in
  let checkpoint_bytes = ref 0 and checkpoints = ref 0 in
  let failed_checks = ref 0 in
  let check what ok =
    if not ok then begin
      note "check failed: %s" what;
      incr failed_checks
    end
  in
  (* A restart over a copy of the log must replay exactly the aligned
     tail and, when [verify] is set, reproduce the live state.  Only the
     final restart verifies, so the state copies the comparison needs
     never sit in the heap during the loop. *)
  let recovery_times = ref [] in
  let measure_restart ~verify =
    let dir = Filename.concat args.dir "restart" in
    let out = Filename.concat args.dir "recovered.bin" in
    copy_log ~src:live_dir ~dst:dir;
    (match child_restart w ~dir ~out with
    | None -> check "restart process succeeded" false
    | Some (dt, replayed) ->
      check "recovery replayed the aligned tail" (replayed = W.tail_records);
      if verify then
        check "recovered state equals live state"
          (match Durability.Checkpoint.read out with
          | Some recovered ->
            Durability.State.equal recovered (Manager.capture_state mgr)
          | None -> false);
      recovery_times := dt :: !recovery_times);
    rm_rf dir;
    rm_rf out
  in
  let wal = wal_path live_dir in
  let last_restart = ref (now ()) in
  let commit i txn =
    let before = file_size wal in
    let dt =
      match time (fun () -> Manager.commit mgr txn) with
      | _, dt ->
        latencies := dt :: !latencies;
        dt
      | exception e ->
        note "commit failed: %s" (Printexc.to_string e);
        incr failed_commits;
        0.0
    in
    let after = file_size wal in
    if after >= before then begin
      wal_bytes := !wal_bytes + (after - before);
      incr frames
    end
    else begin
      checkpoint_bytes := !checkpoint_bytes + file_size (checkpoint_path live_dir);
      incr checkpoints
    end;
    (* Restarts are spread over the loop, whenever the WAL holds the
       aligned tail and [restart_every] seconds have passed, so the
       median of [recovery_s] spans the run instead of one moment. *)
    if
      (i + 1) mod W.checkpoint_every = W.tail_records
      && now () -. !last_restart >= restart_every
    then begin
      measure_restart ~verify:false;
      last_restart := now ()
    end;
    dt
  in
  let n, measured, windows = drive ~seconds:args.seconds stream commit in
  (* Set-up and the loop, before the checks allocate their copies. *)
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1_048_576.0
  in
  check "Manager.all_consistent" (Manager.all_consistent mgr);
  measure_restart ~verify:true;
  let sorted = Array.of_list (List.sort Float.compare !latencies) in
  (* p99 with at least 1,000 commits, else the highest whole percentile
     that leaves at least ten commits above it. *)
  let tail_p =
    if n >= 1_000 then 99.0
    else Float.of_int (int_of_float (100.0 *. (1.0 -. (10.0 /. float_of_int n))))
  in
  let tail = percentile sorted tail_p in
  let beyond = List.length (List.filter (fun x -> x > tail) !latencies) in
  let failed = !failed_commits + !failed_checks in
  note "workload %s: seed %d, %d commits in %.3f s of commit time, domains %d"
    w.W.name args.seed n measured w.W.domains;
  note "commit_tail_ms is p%.0f (%d commits above it)" tail_p beyond;
  note "checkpoints %d, wal frames %d, wal bytes %d, checkpoint bytes %d"
    !checkpoints !frames !wal_bytes !checkpoint_bytes;
  note "set-ups %d, restarts %d" (List.length setup_times)
    (List.length !recovery_times);
  note "commit_error_rate %g (%d failed commits, %d failed checks)"
    (float_of_int failed /. float_of_int (max 1 n))
    !failed_commits !failed_checks;
  let log_bytes =
    (float_of_int !wal_bytes /. float_of_int (max 1 !frames))
    +. (float_of_int !checkpoint_bytes /. float_of_int n)
  in
  emit ~attempted:n ~failed
    [
      ("setup_s", median setup_times);
      ("commit_p50_ms", 1e3 *. percentile sorted 50.0);
      ("commit_tail_ms", 1e3 *. tail);
      (* Throughput as the median over 64-commit windows, so a burst of
         machine noise moves it less than a plain mean would. *)
      ("commits_per_s", float_of_int block_size /. median windows);
      ("recovery_s", median !recovery_times);
      ("log_bytes_per_commit", log_bytes);
      ("peak_heap_mb", peak_heap_mb);
      ( "commit_success_rate",
        float_of_int (n - !failed_commits) /. float_of_int n );
    ]

(* --- traced run -------------------------------------------------------- *)

type acc = {
  mutable commits : int;
  mutable net_s : float;
  mutable net_tuples : int;
  mutable screen_s : float;
  mutable screened : int;
  mutable dropped : int;
  mutable screen_words : float;
  mutable decide_s : float;
  mutable reports : int;
  mutable recomputes : int;
  mutable self_maintained : int;
  mutable eval_ns : int;
  mutable rows : int;
  mutable delta_tuples : int;
  mutable apply_ns : int;
  mutable groups : int;
  mutable rescans : int;
  mutable cascade_ns : int;
  mutable reported_ns : int;
  mutable wall_s : float;
  (* telemetry off / on halves of the loop *)
  mutable off_n : int;
  mutable off_s : float;
  mutable off_minor : float;
  mutable off_major : int;
  mutable on_n : int;
  mutable on_s : float;
  (* the one-domain twin *)
  mutable twin_s : float;
  mutable main_s : float;
}

let new_acc () =
  {
    commits = 0; net_s = 0.0; net_tuples = 0; screen_s = 0.0; screened = 0;
    dropped = 0; screen_words = 0.0; decide_s = 0.0; reports = 0;
    recomputes = 0; self_maintained = 0; eval_ns = 0; rows = 0;
    delta_tuples = 0; apply_ns = 0; groups = 0; rescans = 0; cascade_ns = 0;
    reported_ns = 0; wall_s = 0.0; off_n = 0; off_s = 0.0; off_minor = 0.0;
    off_major = 0; on_n = 0; on_s = 0.0; twin_s = 0.0; main_s = 0.0;
  }

(* Per-layer probes on the pre-commit state: netting, the Theorem 4.1
   screen of every base view's update sets, and the advisor's decision.
   None of them mutates anything. *)
let probe acc (w : W.t) mgr txn =
  let db = Manager.database mgr in
  let net, dt = time (fun () -> Transaction.net_effect db txn) in
  acc.net_s <- acc.net_s +. dt;
  acc.net_tuples <-
    acc.net_tuples + sum (fun (_, (i, d)) -> List.length i + List.length d) net;
  List.iter
    (fun (v : W.view) ->
      if not v.W.tower then begin
        let view = Manager.view mgr v.W.view_name in
        List.iter
          (fun (s : Query.Spj.source) ->
            match List.assoc_opt s.Query.Spj.relation net with
            | None -> ()
            | Some sets ->
              let alias = s.Query.Spj.alias in
              let raw = Delta.of_lists (View.qualified_schema view ~alias) sets in
              let screen = View.screen_for view ~alias in
              let words0 = Gc.minor_words () in
              let (_, (kept, out)), dt =
                time (fun () -> Irrelevance.screen_delta_stats screen raw)
              in
              acc.screen_words <- acc.screen_words +. (Gc.minor_words () -. words0);
              acc.screen_s <- acc.screen_s +. dt;
              acc.screened <- acc.screened + kept + out;
              acc.dropped <- acc.dropped + out)
          (View.spj view).Query.Spj.sources;
        let _, dt = time (fun () -> Advisor.decide view ~db ~net) in
        acc.decide_s <- acc.decide_s +. dt
      end)
    w.W.views

let account acc (w : W.t) reports =
  List.iter
    (fun (r : Maintenance.report) ->
      acc.reports <- acc.reports + 1;
      (match r.Maintenance.strategy_used with
      | Maintenance.Recompute -> acc.recomputes <- acc.recomputes + 1
      | Maintenance.Self_maintain ->
        acc.self_maintained <- acc.self_maintained + 1
      | Maintenance.Differential | Maintenance.Adaptive -> ());
      acc.eval_ns <- acc.eval_ns + r.Maintenance.eval_ns;
      acc.rows <- acc.rows + r.Maintenance.rows_evaluated;
      acc.delta_tuples <-
        acc.delta_tuples + r.Maintenance.delta_inserts + r.Maintenance.delta_deletes;
      acc.apply_ns <- acc.apply_ns + r.Maintenance.apply_ns;
      acc.groups <- acc.groups + r.Maintenance.groups_touched;
      acc.rescans <- acc.rescans + r.Maintenance.rescans;
      acc.reported_ns <- acc.reported_ns + r.Maintenance.total_ns;
      if
        List.exists
          (fun (v : W.view) -> v.W.tower && v.W.view_name = r.Maintenance.view_name)
          w.W.views
      then acc.cascade_ns <- acc.cascade_ns + r.Maintenance.total_ns)
    reports

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let traced args =
  let w = args.workload in
  let live_dir = Filename.concat args.dir "live" in
  let sc, mgr = setup w ~seed:args.seed ~dir:live_dir in
  (* The pool speedup compares against a one-domain twin fed the same
     stream; with one domain configured the twin would be the run itself. *)
  let twin =
    if w.W.domains > 1 then
      Some
        (snd
           (setup ~domains:1 w ~seed:args.seed
              ~dir:(Filename.concat args.dir "twin")))
    else None
  in
  let stream = W.stream w ~seed:args.seed sc in
  let acc = new_acc () in
  let failed_commits = ref 0 in
  Advisor.reset_samples ();
  Obs.Metrics.reset ();
  Obs.Span.reset ();
  Gc.full_major ();
  let commit i txn =
    probe acc w mgr txn;
    (* Telemetry alternates per block, so drift lands on both halves of
       the tracing-overhead ratio. *)
    let traced_block = i / block_size mod 2 = 1 in
    if traced_block then Obs.Control.enable () else Obs.Control.disable ();
    let minor0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).Gc.major_collections in
    let dt =
      match time (fun () -> Manager.commit mgr txn) with
      | reports, dt ->
        account acc w reports;
        dt
      | exception e ->
        Obs.Control.disable ();
        note "commit failed: %s" (Printexc.to_string e);
        incr failed_commits;
        0.0
    in
    Obs.Control.disable ();
    if traced_block then begin
      acc.on_n <- acc.on_n + 1;
      acc.on_s <- acc.on_s +. dt
    end
    else begin
      acc.off_n <- acc.off_n + 1;
      acc.off_s <- acc.off_s +. dt;
      acc.off_minor <- acc.off_minor +. (Gc.minor_words () -. minor0);
      acc.off_major <-
        acc.off_major + ((Gc.quick_stat ()).Gc.major_collections - major0)
    end;
    Option.iter
      (fun twin ->
        match time (fun () -> Manager.commit twin txn) with
        | _, twin_dt ->
          acc.twin_s <- acc.twin_s +. twin_dt;
          acc.main_s <- acc.main_s +. dt
        | exception e ->
          note "one-domain twin commit failed: %s" (Printexc.to_string e);
          incr failed_commits)
      twin;
    acc.commits <- acc.commits + 1;
    acc.wall_s <- acc.wall_s +. dt;
    dt
  in
  let n, _, _ = drive ~seconds:args.seconds stream commit in
  let failed_checks = ref 0 in
  let check what ok =
    if not ok then begin
      note "check failed: %s" what;
      incr failed_checks
    end
  in
  check "Manager.all_consistent" (Manager.all_consistent mgr);
  let live = Manager.capture_state mgr in
  (* WAL: replay the workload's own logged tail into a scratch log. *)
  let scratch = Filename.concat args.dir "scratch" in
  mkdir_p scratch;
  let copy = Filename.concat scratch "tail.bin" in
  copy_file (wal_path live_dir) copy;
  let _, records =
    Durability.Wal.open_ ~fsync:Durability.Config.Never copy
  in
  let records = Array.of_list (List.map snd records) in
  let log, _ =
    Durability.Wal.open_ ~fsync:Durability.Config.Never
      (Filename.concat scratch "replay.bin")
  in
  let appends = 4 * W.fsync_every in
  let size0 = Durability.Wal.size log in
  let append_times = ref [] and sync_times = ref [] in
  for k = 0 to appends - 1 do
    let record = records.(k mod Array.length records) in
    let _, dt = time (fun () -> Durability.Wal.append log record) in
    append_times := dt :: !append_times;
    if (k + 1) mod W.fsync_every = 0 then
      sync_times := snd (time (fun () -> Durability.Wal.sync log)) :: !sync_times
  done;
  let bytes_per_record =
    float_of_int (Durability.Wal.size log - size0) /. float_of_int appends
  in
  (* Checkpoint: capture and write the live state. *)
  let ckpt = Filename.concat scratch "checkpoint.bin" in
  let capture_times =
    List.init 3 (fun _ -> snd (time (fun () -> Manager.capture_state mgr)))
  in
  let write_times =
    List.init 3 (fun _ -> snd (time (fun () -> Durability.Checkpoint.write ckpt live)))
  in
  let checkpoint_bytes = file_size ckpt in
  (* Recovery: read the checkpoint, then restart over the tail and over
     no tail; the difference is the replay. *)
  let read_times = ref [] and replay_costs = ref [] in
  for k = 0 to 2 do
    let dir = Filename.concat args.dir (Printf.sprintf "restart%d" k) in
    copy_log ~src:live_dir ~dst:dir;
    read_times :=
      snd (time (fun () -> Durability.Checkpoint.read (checkpoint_path dir)))
      :: !read_times;
    let recovered, info, with_tail = restart w ~dir in
    check "recovered state equals live state"
      (Durability.State.equal (Manager.capture_state recovered) live);
    let _, _, no_tail = restart w ~dir in
    replay_costs :=
      ((with_tail -. no_tail)
      /. float_of_int (max 1 info.Manager.records_replayed))
      :: !replay_costs;
    rm_rf dir
  done;
  let calibration = Advisor.calibrate () in
  let journal_bytes =
    match Obs.Metrics.histogram "ivm_resilience_journal_bytes" with
    | Some h when h.Obs.Metrics.count > 0 ->
      float_of_int h.Obs.Metrics.sum /. float_of_int h.Obs.Metrics.count
    | _ -> 0.0
  in
  let per_on x = float_of_int x /. float_of_int (max 1 acc.on_n) in
  let per_commit x = x /. float_of_int (max 1 acc.commits) in
  let us s = 1e6 *. per_commit s in
  let us_ns ns = per_commit (float_of_int ns) /. 1e3 in
  let rate_off = float_of_int acc.off_n /. acc.off_s
  and rate_on = float_of_int acc.on_n /. acc.on_s in
  let failed = !failed_commits + !failed_checks in
  note "workload %s (traced): seed %d, %d commits, domains %d" w.W.name
    args.seed n w.W.domains;
  note "commit_error_rate %g (%d failed commits, %d failed checks)"
    (float_of_int failed /. float_of_int (max 1 n))
    !failed_commits !failed_checks;
  emit ~attempted:n ~failed
    [
      ("relalg.net_effect_us", us acc.net_s);
      ("relalg.net_tuples", per_commit (float_of_int acc.net_tuples));
      ("irrelevance.screen_us", us acc.screen_s);
      ("irrelevance.drop_ratio", ratio acc.dropped acc.screened);
      ( "irrelevance.alloc_words_per_tuple",
        acc.screen_words /. float_of_int (max 1 acc.screened) );
      ("advisor.decide_us", us acc.decide_s);
      ("advisor.recompute_share", ratio acc.recomputes acc.reports);
      ("advisor.self_maintain_share", ratio acc.self_maintained acc.reports);
      ( "advisor.mean_rel_err",
        Option.value calibration.Advisor.mean_abs_rel_error ~default:0.0 );
      ("maintenance.eval_us", us_ns acc.eval_ns);
      ("maintenance.rows_evaluated", per_commit (float_of_int acc.rows));
      ("maintenance.delta_per_row", ratio acc.delta_tuples acc.rows);
      ("maintenance.view_apply_us", us_ns acc.apply_ns);
      ("grouped.groups_touched", per_commit (float_of_int acc.groups));
      ("grouped.rescans", per_commit (float_of_int acc.rescans));
      ("grouped.rescan_share", ratio acc.rescans acc.groups);
      ("manager.cascade_us", us_ns acc.cascade_ns);
      ( "manager.unattributed_share",
        1.0 -. (float_of_int acc.reported_ns /. 1e9 /. acc.wall_s) );
      ("journal.bytes_per_commit", journal_bytes);
      ("pool.tasks", per_on (Obs.Metrics.counter_value "ivm_exec_tasks_total"));
      ("pool.steals", per_on (Obs.Metrics.counter_value "ivm_exec_steal_total"));
      ( "pool.speedup_vs_1domain",
        match twin with None -> 1.0 | Some _ -> acc.twin_s /. acc.main_s );
      ("wal.append_us", 1e6 *. median !append_times);
      ("wal.fsync_ms", 1e3 *. median !sync_times);
      ("wal.bytes_per_record", bytes_per_record);
      ("checkpoint.capture_ms", 1e3 *. median capture_times);
      ("checkpoint.write_ms", 1e3 *. median write_times);
      ("checkpoint.bytes", float_of_int checkpoint_bytes);
      ("recovery.checkpoint_read_ms", 1e3 *. median !read_times);
      ("recovery.replay_us_per_record", 1e6 *. median !replay_costs);
      ("gc.minor_words_per_commit", acc.off_minor /. float_of_int (max 1 acc.off_n));
      ( "gc.major_per_1k_commits",
        1000.0 *. float_of_int acc.off_major /. float_of_int (max 1 acc.off_n) );
      ("obs.tracing_overhead_pct", 100.0 *. ((rate_off /. rate_on) -. 1.0));
    ]

let () =
  match parse_args () with
  | Restart { workload; dir; out } -> restart_main workload ~dir ~out
  | Run args ->
    mkdir_p args.dir;
    Fun.protect
      ~finally:(fun () -> try rm_rf args.dir with _ -> ())
      (fun () -> if args.trace then traced args else plain args)
