(* Unit tests for the lib/exec domain pool: inline fallback, helping
   await, exception transparency, idempotent shutdown, the shared
   registry. *)

module Pool = Exec.Pool

let quick name f = Alcotest.test_case name `Quick f

let test_map_list () =
  let pool = Pool.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let xs = List.init 100 Fun.id in
      Alcotest.(check (list int))
        "order preserved"
        (List.map (fun x -> x * x) xs)
        (Pool.map_list pool (fun x -> x * x) xs);
      Alcotest.(check (list int)) "empty list" [] (Pool.map_list pool Fun.id []))

let test_sequential_fallback () =
  let pool = Pool.create ~domains:1 () in
  Alcotest.(check int) "size 1" 1 (Pool.size pool);
  let ran_on = ref (-1) in
  let fut =
    Pool.submit pool (fun () ->
        ran_on := (Domain.self () :> int);
        7)
  in
  Alcotest.(check int)
    "ran inline in the caller before await"
    ((Domain.self () :> int))
    !ran_on;
  Alcotest.(check int) "value" 7 (Pool.await fut);
  Pool.shutdown pool

let test_exception_does_not_wedge () =
  let pool = Pool.create ~domains:3 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let bad = Pool.submit pool (fun () -> failwith "boom") in
      let good = Pool.submit pool (fun () -> 41) in
      (match Pool.await bad with
      | _ -> Alcotest.fail "await of a failed task must raise"
      | exception Failure m -> Alcotest.(check string) "message" "boom" m);
      Alcotest.(check int) "sibling task unaffected" 41 (Pool.await good);
      Alcotest.(check (list int))
        "pool still runs new work after a task raised" [ 2; 3; 4 ]
        (Pool.map_list pool (fun x -> x + 1) [ 1; 2; 3 ]))

let test_shutdown_idempotent () =
  let pool = Pool.create ~domains:3 () in
  let futures = List.init 20 (fun i -> Pool.submit pool (fun () -> i * 2)) in
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* Queued futures completed during the shutdown drain. *)
  List.iteri
    (fun i future ->
      Alcotest.(check int) "drained on shutdown" (i * 2) (Pool.await future))
    futures;
  Alcotest.(check int)
    "submissions after shutdown run inline" 9
    (Pool.await (Pool.submit pool (fun () -> 9)))

let test_nested_submission () =
  let pool = Pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let total =
        Pool.await
          (Pool.submit pool (fun () ->
               List.fold_left ( + ) 0
                 (Pool.map_list pool (fun x -> x * 10) [ 1; 2; 3 ])))
      in
      Alcotest.(check int) "nested map_list on the same pool" 60 total)

let test_shared_registry () =
  let p1 = Pool.shared ~domains:3 in
  let p2 = Pool.shared ~domains:3 in
  Alcotest.(check bool) "one pool per size" true (p1 == p2);
  Alcotest.(check int) "size" 3 (Pool.size p1)

(* The fault-isolation idiom of per-view fan-out: tasks wrapped to
   return a [result] never raise, so [map_list] awaits every one of
   them, in order. *)
let wrap_result f x =
  match f x with
  | v -> Ok v
  | exception e -> Error (e, Printexc.get_raw_backtrace ())

let test_map_list_wrapped_results () =
  let describe = function
    | Ok v -> Printf.sprintf "ok %d" v
    | Error (Failure m, _) -> "fail " ^ m
    | Error (Division_by_zero, _) -> "div0"
    | Error _ -> "other"
  in
  let pool = Pool.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let results =
        Pool.map_list pool
          (wrap_result (fun x ->
               if x mod 3 = 0 then failwith (string_of_int x)
               else 100 / (x - 4)))
          [ 1; 2; 3; 4; 5; 6 ]
      in
      Alcotest.(check (list string))
        "every task resolves in order, failures as Error"
        [ "ok -33"; "ok -50"; "fail 3"; "div0"; "ok 100"; "fail 6" ]
        (List.map describe results);
      (* A failing task must not abandon its siblings or the pool. *)
      Alcotest.(check (list int))
        "pool still runs new work" [ 2; 4 ]
        (Pool.map_list pool (fun x -> x * 2) [ 1; 2 ]))

(* A size-1 pool runs the wrapped tasks inline; the results must have
   the pooled shape, backtrace included. *)
let test_map_list_wrapped_results_inline () =
  let pool = Pool.create ~domains:1 () in
  let backtrace_flag = Printexc.backtrace_status () in
  Fun.protect
    ~finally:(fun () ->
      Printexc.record_backtrace backtrace_flag;
      Pool.shutdown pool)
    (fun () ->
      Printexc.record_backtrace true;
      match Pool.map_list pool (wrap_result (fun x -> 100 / x)) [ 2; 0 ] with
      | [ Ok 50; Error (Division_by_zero, bt) ] ->
        ignore (Printexc.raw_backtrace_to_string bt)
      | _ -> Alcotest.fail "inline path must mirror the pooled result shape")

let test_coalesce () =
  Alcotest.(check (list (list int)))
    "packs up to the threshold"
    [ [ 5; 5 ]; [ 5; 5 ] ]
    (Pool.coalesce ~cost:Fun.id ~threshold:10 [ 5; 5; 5; 5 ]);
  Alcotest.(check (list (list int)))
    "an over-threshold element stands alone"
    [ [ 3 ]; [ 100 ]; [ 2 ] ]
    (Pool.coalesce ~cost:Fun.id ~threshold:10 [ 3; 100; 2 ]);
  Alcotest.(check (list (list int)))
    "empty input" []
    (Pool.coalesce ~cost:Fun.id ~threshold:10 []);
  let xs = List.init 57 (fun i -> i mod 9) in
  Alcotest.(check (list int))
    "concatenating the groups yields the input" xs
    (List.concat (Pool.coalesce ~cost:Fun.id ~threshold:13 xs))

(* Several external domains hammer the same pool with batches
   concurrently ([map_list] submits each list as one batch); every batch
   must come back complete, ordered and uncorrupted. *)
let test_concurrent_submit_batch () =
  let pool = Pool.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let submitters =
        List.init 3 (fun d ->
            Domain.spawn (fun () ->
                List.concat_map
                  (fun round ->
                    let thunks =
                      List.init 40 (fun i () -> (d * 1000) + (round * 100) + i)
                    in
                    Pool.map_list pool (fun thunk -> thunk ()) thunks)
                  [ 0; 1; 2; 3; 4 ]))
      in
      List.iteri
        (fun d results ->
          let expect =
            List.concat_map
              (fun round ->
                List.init 40 (fun i -> (d * 1000) + (round * 100) + i))
              [ 0; 1; 2; 3; 4 ]
          in
          Alcotest.(check (list int))
            (Printf.sprintf "submitter %d got its own batches back" d)
            expect results)
        (List.map Domain.join submitters))

(* Steal correctness: block whichever worker picks up a gated task, and
   check the other worker crosses queues to finish the round-robin-
   distributed quick tasks — the steal counter must move, and every
   result must still be right.  The main domain spins without awaiting
   so its helping pops (which are not steals) cannot mask the check. *)
let test_work_stealing () =
  Obs.Control.with_enabled (fun () ->
      let pool = Pool.create ~domains:3 () in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () ->
          let before = Obs.Metrics.counter_value "ivm_exec_steal_total" in
          let gate = Mutex.create () in
          let gate_open = Stdlib.Condition.create () in
          let opened = ref false in
          let blocker =
            Pool.submit pool (fun () ->
                Mutex.lock gate;
                while not !opened do
                  Stdlib.Condition.wait gate_open gate
                done;
                Mutex.unlock gate;
                "unblocked")
          in
          let completed = Atomic.make 0 in
          let quick =
            List.init 20 (fun i ->
                Pool.submit pool (fun () ->
                    Atomic.incr completed;
                    i * 7))
          in
          let budget = ref 2_000_000_000 in
          while Atomic.get completed < 20 && !budget > 0 do
            decr budget;
            Domain.cpu_relax ()
          done;
          Alcotest.(check bool)
            "quick tasks completed while one worker was blocked" true
            (Atomic.get completed = 20);
          Alcotest.(check bool)
            "the free worker stole across queues" true
            (Obs.Metrics.counter_value "ivm_exec_steal_total" > before);
          Mutex.lock gate;
          opened := true;
          Stdlib.Condition.broadcast gate_open;
          Mutex.unlock gate;
          Alcotest.(check string) "blocker resolves" "unblocked"
            (Pool.await blocker);
          Alcotest.(check (list int))
            "stolen tasks returned the right values"
            (List.init 20 (fun i -> i * 7))
            (List.map Pool.await quick)))

(* Deep nesting under load: every task of an outer batch fans out its
   own inner batch on the same pool and awaits it.  A pool whose
   await could park while its sub-tasks sit unclaimed would deadlock
   here. *)
let test_nested_batch_deadlock_free () =
  List.iter
    (fun domains ->
      let pool = Pool.create ~domains () in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () ->
          let totals =
            Pool.map_list pool
              (fun outer ->
                List.fold_left ( + ) 0
                  (Pool.map_list pool (fun x -> x + outer)
                     (List.init 30 Fun.id)))
              (List.init 8 Fun.id)
          in
          let expect = List.init 8 (fun outer -> 435 + (30 * outer)) in
          Alcotest.(check (list int))
            (Printf.sprintf "nested fan-out at %d domains" domains)
            expect totals))
    [ 2; 4 ]

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          quick "map_list preserves order and values" test_map_list;
          quick "size-1 pool runs submissions inline" test_sequential_fallback;
          quick "a raising task re-raises on await and does not wedge the pool"
            test_exception_does_not_wedge;
          quick "shutdown is idempotent and drains queued tasks"
            test_shutdown_idempotent;
          quick "tasks may submit sub-tasks to their own pool"
            test_nested_submission;
          quick "map_list awaits every result-wrapped task in order"
            test_map_list_wrapped_results;
          quick "map_list inline wrapped results match the pooled shape"
            test_map_list_wrapped_results_inline;
          quick "shared registry returns one pool per size" test_shared_registry;
          quick "coalesce groups by summed cost" test_coalesce;
          quick "concurrent submit_batch from several domains"
            test_concurrent_submit_batch;
          quick "a free worker steals a blocked worker's queue"
            test_work_stealing;
          quick "nested batch fan-out cannot deadlock"
            test_nested_batch_deadlock_free;
        ] );
    ]
