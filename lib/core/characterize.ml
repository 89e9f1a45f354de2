module Formula = Eba_epistemic.Formula
module Nonrigid = Eba_epistemic.Nonrigid
module Pset = Eba_epistemic.Pset
module Value = Eba_sim.Value
module Model = Eba_fip.Model

type failure = { condition : string; point : int; proc : int }

type ctx = {
  env : Formula.env;
  n : Nonrigid.t;
  e0 : Formula.t;
  e1 : Formula.t;
  c_zero : Formula.t;  (* C□_{N∧O} ∃0 *)
  c_one : Formula.t;  (* C□_{N∧Z} ∃1 *)
  dec : Value.t -> int -> Formula.t;
}

let ctx env (d : Kb_protocol.decisions) =
  let model = Formula.model env in
  let n = Formula.nonfaulty env in
  let pair = d.Kb_protocol.pair in
  let n_and_o = Kb_protocol.conjoin env n "N&O" pair.Kb_protocol.one in
  let n_and_z = Kb_protocol.conjoin env n "N&Z" pair.Kb_protocol.zero in
  let e0 = Formula.exists env Value.zero in
  let e1 = Formula.exists env Value.one in
  {
    env;
    n;
    e0;
    e1;
    c_zero = Formula.Cbox (n_and_o, e0);
    c_one = Formula.Cbox (n_and_z, e1);
    dec =
      (* each decide_i(y) atom is built on first use and then shared *)
      (let atoms =
         Array.init 2 (fun y ->
             Array.init (Model.n model) (fun i ->
                 lazy (Kb_protocol.decided_atom env d (Value.of_int y) i)))
       in
       fun y i -> Lazy.force atoms.(Value.to_int y).(i));
  }

let check_per_proc env nprocs mk =
  let failures = ref [] in
  for i = 0 to nprocs - 1 do
    let condition, formula = mk i in
    match Formula.counterexample env formula with
    | None -> ()
    | Some point -> failures := { condition; point; proc = i } :: !failures
  done;
  List.rev !failures

let necessary env d =
  let c = ctx env d in
  let model = Formula.model env in
  let mk_zero i =
    ( Printf.sprintf "4.3a: decide_%d(0) => B(e0 & Cbox[N&O] e0 & ~decide(1))" i,
      Formula.Implies
        ( c.dec Value.Zero i,
          Formula.B
            (c.n, i, Formula.And [ c.e0; c.c_zero; Formula.Not (c.dec Value.One i) ]) ) )
  in
  let mk_one i =
    ( Printf.sprintf "4.3b: decide_%d(1) => B(e1 & Cbox[N&Z] e1 & ~decide(0))" i,
      Formula.Implies
        ( c.dec Value.One i,
          Formula.B
            (c.n, i, Formula.And [ c.e1; c.c_one; Formula.Not (c.dec Value.Zero i) ]) ) )
  in
  check_per_proc env (Model.n model) mk_zero
  @ check_per_proc env (Model.n model) mk_one

(* Prop 4.4 constrains the decision pair itself, so its decide_i(y) is the
   raw set-membership reading (Kb_protocol.member_atom): the first-entry
   outcome differs only at views whose owner knows itself faulty, where
   every B^N_i formula is vacuously true and outcomes are unconstrained. *)
let sufficient_zero_anchored env (d : Kb_protocol.decisions) =
  let c = ctx env d in
  let model = Formula.model env in
  let mem = Kb_protocol.member_atom env d.Kb_protocol.pair in
  let ok = ref true in
  for i = 0 to Model.n model - 1 do
    let a = Formula.Implies (mem Value.Zero i, Formula.B (c.n, i, c.e0)) in
    let b =
      Formula.Iff (mem Value.One i, Formula.B (c.n, i, Formula.And [ c.e1; c.c_one ]))
    in
    if not (Formula.valid env a && Formula.valid env b) then ok := false
  done;
  !ok

let sufficient_one_anchored env (d : Kb_protocol.decisions) =
  let c = ctx env d in
  let model = Formula.model env in
  let mem = Kb_protocol.member_atom env d.Kb_protocol.pair in
  let ok = ref true in
  for i = 0 to Model.n model - 1 do
    let a =
      Formula.Iff (mem Value.Zero i, Formula.B (c.n, i, Formula.And [ c.e0; c.c_zero ]))
    in
    let b = Formula.Implies (mem Value.One i, Formula.B (c.n, i, c.e1)) in
    if not (Formula.valid env a && Formula.valid env b) then ok := false
  done;
  !ok

let optimality_failures env d =
  let c = ctx env d in
  let model = Formula.model env in
  let mk_zero i =
    ( Printf.sprintf "5.3a: nonfaulty %d decides 0 iff the knowledge condition" i,
      Formula.Implies
        ( Formula.In (c.n, i),
          Formula.Iff
            ( c.dec Value.Zero i,
              Formula.B
                ( c.n,
                  i,
                  Formula.And [ c.e0; c.c_zero; Formula.Not (c.dec Value.One i) ] ) ) ) )
  in
  let mk_one i =
    ( Printf.sprintf "5.3b: nonfaulty %d decides 1 iff the knowledge condition" i,
      Formula.Implies
        ( Formula.In (c.n, i),
          Formula.Iff
            ( c.dec Value.One i,
              Formula.B
                ( c.n,
                  i,
                  Formula.And [ c.e1; c.c_one; Formula.Not (c.dec Value.Zero i) ] ) ) ) )
  in
  check_per_proc env (Model.n model) mk_zero
  @ check_per_proc env (Model.n model) mk_one

let is_optimal env d = optimality_failures env d = []
