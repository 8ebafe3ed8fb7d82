type options = {
  tolerance : float;
  timing_tolerance : float;
  check_timing : bool;
}

let default = { tolerance = 0.30; timing_tolerance = 3.0; check_timing = false }

type outcome = {
  regressions : string list;
  notes : string list;
  compared : int;
}

let num = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float x -> Some x
  | _ -> None

let num_member name json = Option.bind (Json.member name json) num

(* [path "a.b" json] follows object members. *)
let path keys json =
  List.fold_left
    (fun acc key -> Option.bind acc (Json.member key))
    (Some json)
    (String.split_on_char '.' keys)

let num_path keys json = Option.bind (path keys json) num

let list_path keys json =
  match path keys json with Some (Json.List items) -> Some items | _ -> None

let str_member name json =
  match Json.member name json with Some (Json.Str s) -> Some s | _ -> None

let compare_snapshots opts ~baseline ~current =
  let regressions = ref [] and notes = ref [] and compared = ref 0 in
  let regress fmt = Printf.ksprintf (fun m -> regressions := m :: !regressions) fmt in
  let note fmt = Printf.ksprintf (fun m -> notes := m :: !notes) fmt in
  (* A deterministic field: relative drift beyond [tolerance] regresses. *)
  let deterministic ~what ~worse_when base cur =
    incr compared;
    let drift =
      if base = 0.0 then Float.abs cur
      else Float.abs (cur -. base) /. Float.abs base
    in
    let worse =
      match worse_when with `Lower -> cur < base | `Either -> true
    in
    if drift > opts.tolerance && worse then
      regress "%s: %.4g -> %.4g (drift %.0f%% > %.0f%% tolerance)" what base
        cur (drift *. 100.0) (opts.tolerance *. 100.0)
  in
  (* A timing field: degradation beyond [timing_tolerance] regresses only
     under [check_timing]; otherwise it is reported as a note. *)
  let timing ~what ~worse_when base cur =
    incr compared;
    let degraded =
      match worse_when with
      | `Higher -> base > 0.0 && cur > base *. opts.timing_tolerance
      | `Lower -> cur > 0.0 && base > cur *. opts.timing_tolerance
    in
    if degraded then
      if opts.check_timing then
        regress "%s: %.4g -> %.4g (beyond %.1fx timing tolerance)" what base
          cur opts.timing_tolerance
      else
        note "%s: %.4g -> %.4g (timing; not gated against this baseline)"
          what base cur
  in
  let both keys = (num_path keys baseline, num_path keys current) in
  (* schema version must never move backwards *)
  (match both "schema_version" with
  | Some base, Some cur ->
    incr compared;
    if cur < base then
      regress "schema_version went backwards: %.0f -> %.0f" base cur
  | _, None -> regress "current snapshot has no schema_version"
  | None, _ -> regress "baseline snapshot has no schema_version");
  (* per-view: matched by name against the baseline's view list *)
  let views_of json =
    match list_path "views" json with Some vs -> vs | None -> []
  in
  let current_views = views_of current in
  List.iter
    (fun base_view ->
      match str_member "name" base_view with
      | None -> ()
      | Some name -> (
        match
          List.find_opt
            (fun v -> str_member "name" v = Some name)
            current_views
        with
        | None -> regress "view %S disappeared from the snapshot" name
        | Some cur_view ->
          (match (num_member "commits" base_view, num_member "commits" cur_view)
           with
          | Some base, Some cur ->
            deterministic ~what:(Printf.sprintf "views.%s.commits" name)
              ~worse_when:`Either base cur
          | _ -> regress "view %S lacks a commits field" name);
          (* screening ratio: deterministic for the canonical workload *)
          (let ratio v =
             match (num_member "screened_out" v, num_member "screened_kept" v)
             with
             | Some out, Some kept when out +. kept > 0.0 ->
               Some (out /. (out +. kept))
             | _ -> None
           in
           match (ratio base_view, ratio cur_view) with
           | Some base, Some cur ->
             incr compared;
             if base -. cur > opts.tolerance then
               regress
                 "views.%s screening ratio collapsed: %.2f -> %.2f (the \
                  Theorem 4.1 screen stopped dropping updates)"
                 name base cur
           | _ -> ());
          List.iter
            (fun field ->
              match
                (num_member field base_view, num_member field cur_view)
              with
              | Some base, Some cur ->
                timing
                  ~what:(Printf.sprintf "views.%s.%s" name field)
                  ~worse_when:`Higher base cur
              | _ -> ())
            [ "p50_ns"; "p95_ns" ]))
    (views_of baseline);
  (* advisor calibration must keep existing *)
  (match both "advisor.calibration.samples" with
  | Some base, Some cur when base > 0.0 ->
    incr compared;
    if cur <= 0.0 then
      regress "advisor.calibration.samples: %.0f -> 0 (calibration died)" base
  | _ -> ());
  (match (list_path "advisor.pairs" baseline, list_path "advisor.pairs" current)
   with
  | Some (_ :: _), Some [] ->
    regress "advisor.pairs is empty (predicted-vs-actual pairs disappeared)"
  | Some (_ :: _), None -> regress "advisor.pairs missing from the snapshot"
  | _ -> ());
  (* E18: speedups compare only when both machines had the cores — and
     a skipped comparison is logged as a note, never silent, so a reader
     of the diff knows the parallel axis went unchecked. *)
  (let cores json =
     Option.value ~default:1.0 (num_path "parallel.cores_available" json)
   in
   let usable = Float.min (cores baseline) (cores current) in
   List.iter
     (fun (field, domains) ->
       let what = "parallel.per_view." ^ field in
       match (num_path what baseline, num_path what current) with
       | Some base, Some cur ->
         if usable >= domains then timing ~what ~worse_when:`Lower base cur
         else
           note
             "%s: %.2f -> %.2f skipped (cores_available %.0f < %.0f domains \
              on at least one machine)"
             what base cur usable domains
       | _ -> ())
     [ ("speedup_at_2", 2.0); ("speedup_at_4", 4.0); ("speedup_at_8", 8.0) ]);
  (* E20: the journaling budget is an absolute contract, not a ratio *)
  (match num_path "resilience.journal_overhead_pct" current with
  | Some pct ->
    incr compared;
    if pct > 5.0 then
      if opts.check_timing then
        regress "resilience.journal_overhead_pct %.2f exceeds the 5%% budget"
          pct
      else
        note "resilience.journal_overhead_pct %.2f exceeds the 5%% budget \
              (timing; not gated)" pct
  | None -> regress "resilience.journal_overhead_pct missing");
  (* E21: certified coverage is deterministic; the reduction is timing *)
  (match
     ( num_path "self_maintenance.commits" baseline,
       num_path "self_maintenance.self_maintained_commits" baseline,
       num_path "self_maintenance.commits" current,
       num_path "self_maintenance.self_maintained_commits" current )
   with
  | Some base_total, Some base_cert, Some cur_total, Some cur_cert ->
    incr compared;
    if base_cert >= base_total && cur_cert < cur_total then
      regress
        "self_maintenance coverage broke: %.0f/%.0f certified commits (was \
         %.0f/%.0f)"
        cur_cert cur_total base_cert base_total
  | _ -> ());
  (match both "self_maintenance.eval_reduction" with
  | Some base, Some cur ->
    incr compared;
    if cur <= 1.0 then
      regress
        "self_maintenance.eval_reduction %.2fx: the certified arm no longer \
         beats differential evaluation"
        cur
    else timing ~what:"self_maintenance.eval_reduction" ~worse_when:`Lower base cur
  | _ -> ());
  (* E24: the groups a fixed-seed stream touches are deterministic; the
     incremental-vs-recompute speedup is timing, but must stay > 1x *)
  (match both "aggregate.groups_touched" with
  | Some base, Some cur ->
    deterministic ~what:"aggregate.groups_touched" ~worse_when:`Either base cur
  | _ -> ());
  (match both "aggregate.speedup" with
  | Some base, Some cur ->
    incr compared;
    if cur <= 1.0 then
      regress
        "aggregate.speedup %.2fx: incremental grouped maintenance no longer \
         beats full recompute"
        cur
    else timing ~what:"aggregate.speedup" ~worse_when:`Lower base cur
  | Some _, None -> regress "aggregate section missing from the snapshot"
  | _ -> ());
  (* E25: replay count over the fixed recovery curve is deterministic;
     the group-commit WAL budget is an absolute contract like E20 *)
  (match both "durability.records_replayed_total" with
  | Some base, Some cur ->
    deterministic ~what:"durability.records_replayed_total" ~worse_when:`Either
      base cur
  | Some _, None -> regress "durability section missing from the snapshot"
  | _ -> ());
  (match num_path "durability.wal_overhead_pct" current with
  | Some pct ->
    incr compared;
    if pct > 10.0 then
      if opts.check_timing then
        regress "durability.wal_overhead_pct %.2f exceeds the 10%% budget" pct
      else
        note "durability.wal_overhead_pct %.2f exceeds the 10%% budget \
              (timing; not gated)" pct
  | None ->
    if path "durability" baseline <> None then
      regress "durability.wal_overhead_pct missing");
  {
    regressions = List.rev !regressions;
    notes = List.rev !notes;
    compared = !compared;
  }

(* ------------------------------------------------------------------ *)
(* synthetic degradation for --self-test                               *)
(* ------------------------------------------------------------------ *)

let map_member name f = function
  | Json.Obj fields ->
    Json.Obj
      (List.map (fun (k, v) -> if k = name then (k, f v) else (k, v)) fields)
  | other -> other

let scale_num factor = function
  | Json.Int i -> Json.Int (int_of_float (float_of_int i *. factor))
  | Json.Float x -> Json.Float (x *. factor)
  | other -> other

let degrade json =
  let degrade_view view =
    view
    |> map_member "commits" (scale_num 0.5)
    |> map_member "screened_out" (fun _ -> Json.Int 0)
    |> map_member "p50_ns" (scale_num 10.0)
    |> map_member "p95_ns" (scale_num 10.0)
  in
  json
  |> map_member "views" (function
       | Json.List views -> Json.List (List.map degrade_view views)
       | other -> other)
  |> map_member "advisor" (fun advisor ->
         advisor
         |> map_member "pairs" (fun _ -> Json.List [])
         |> map_member "calibration"
              (map_member "samples" (fun _ -> Json.Int 0)))
  |> map_member "self_maintenance" (fun sm ->
         sm
         |> map_member "self_maintained_commits" (fun _ -> Json.Int 0)
         |> map_member "eval_reduction" (fun _ -> Json.Float 0.5))
  |> map_member "aggregate" (fun agg ->
         agg
         |> map_member "groups_touched" (fun _ -> Json.Int 0)
         |> map_member "speedup" (fun _ -> Json.Float 0.5))
  |> map_member "durability" (fun d ->
         d
         |> map_member "records_replayed_total" (fun _ -> Json.Int 0)
         |> map_member "wal_overhead_pct" (fun _ -> Json.Float 50.0))
