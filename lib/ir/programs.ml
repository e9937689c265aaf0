open Ir

type program = {
  name : string;
  suite : string;
  build : unit -> Ir.modul;
  entry : string;
  args : int list;
  expected : int option;
  description : string;
}

(* Counted loop helper: emits init into the cursor block, creates
   header/body/exit blocks, runs [body] with the induction register,
   and leaves the cursor at the exit block.  Nested calls compose. *)
let mk_loop bld ~start ~stop ?(step = Imm 1) body =
  let i = Build.mov bld start in
  let header = Build.new_block bld in
  Build.terminate bld (Jmp header);
  Build.set_cursor bld header;
  let cond = Build.bin bld Lt (Reg i) stop in
  let bodyb = Build.new_block bld in
  let exitb = Build.new_block bld in
  Build.set_term bld header (Br { cond = Reg cond; if_true = bodyb; if_false = exitb });
  Build.set_cursor bld bodyb;
  body i;
  Build.emit bld (Bin { dst = i; op = Add; a = Reg i; b = step });
  Build.terminate bld (Jmp header);
  Build.set_cursor bld exitb

let single_func f =
  let m = create_module () in
  add_func m f;
  m

(* ------------------------------------------------------------------ *)

let stream_triad n =
  let build () =
    let bld = Build.start ~name:"triad" ~nparams:1 in
    let nreg = match Build.params bld with [ p ] -> p | _ -> assert false in
    let _entry = Build.new_block bld in
    let a = Build.alloc bld ~size:(Reg nreg) in
    let b = Build.alloc bld ~size:(Reg nreg) in
    let c = Build.alloc bld ~size:(Reg nreg) in
    (* Initialize b[i] = i, c[i] = 2i. *)
    mk_loop bld ~start:(Imm 0) ~stop:(Reg nreg) (fun i ->
        Build.store bld ~base:(Reg b) ~offset:(Reg i) ~value:(Reg i);
        let two_i = Build.bin bld Mul (Reg i) (Imm 2) in
        Build.store bld ~base:(Reg c) ~offset:(Reg i) ~value:(Reg two_i));
    (* a[i] = b[i] + 3*c[i]. *)
    mk_loop bld ~start:(Imm 0) ~stop:(Reg nreg) (fun i ->
        let bv = Build.load bld ~base:(Reg b) ~offset:(Reg i) in
        let cv = Build.load bld ~base:(Reg c) ~offset:(Reg i) in
        let scaled = Build.fbin bld Mul (Reg cv) (Imm 3) in
        let sum = Build.fbin bld Add (Reg bv) (Reg scaled) in
        Build.store bld ~base:(Reg a) ~offset:(Reg i) ~value:(Reg sum));
    (* Checksum a[n-1] = (n-1) + 6(n-1) = 7(n-1). *)
    let last = Build.bin bld Sub (Reg nreg) (Imm 1) in
    let v = Build.load bld ~base:(Reg a) ~offset:(Reg last) in
    Build.terminate bld (Ret (Some (Reg v)));
    single_func (Build.finish bld)
  in
  {
    name = "stream-triad";
    suite = "mantevo";
    build;
    entry = "triad";
    args = [ n ];
    expected = Some (7 * (n - 1));
    description = "dense streaming triad; all guards hoistable";
  }

let vec_sum n =
  let build () =
    let bld = Build.start ~name:"vecsum" ~nparams:1 in
    let nreg = match Build.params bld with [ p ] -> p | _ -> assert false in
    let _entry = Build.new_block bld in
    let a = Build.alloc bld ~size:(Reg nreg) in
    mk_loop bld ~start:(Imm 0) ~stop:(Reg nreg) (fun i ->
        Build.store bld ~base:(Reg a) ~offset:(Reg i) ~value:(Reg i));
    let acc = Build.mov bld (Imm 0) in
    mk_loop bld ~start:(Imm 0) ~stop:(Reg nreg) (fun i ->
        let v = Build.load bld ~base:(Reg a) ~offset:(Reg i) in
        Build.emit bld (Bin { dst = acc; op = Add; a = Reg acc; b = Reg v }));
    Build.terminate bld (Ret (Some (Reg acc)));
    single_func (Build.finish bld)
  in
  {
    name = "vec-sum";
    suite = "micro";
    build;
    entry = "vecsum";
    args = [ n ];
    expected = Some (n * (n - 1) / 2);
    description = "reduction over a dense vector";
  }

let mat_mul n =
  let build () =
    let bld = Build.start ~name:"matmul" ~nparams:1 in
    let nreg = match Build.params bld with [ p ] -> p | _ -> assert false in
    let _entry = Build.new_block bld in
    let n2 = Build.bin bld Mul (Reg nreg) (Reg nreg) in
    let a = Build.alloc bld ~size:(Reg n2) in
    let b = Build.alloc bld ~size:(Reg n2) in
    let c = Build.alloc bld ~size:(Reg n2) in
    (* a = identity-ish: a[i][i] = 1; b[i][j] = i + j. *)
    mk_loop bld ~start:(Imm 0) ~stop:(Reg nreg) (fun i ->
        let diag = Build.bin bld Mul (Reg i) (Reg nreg) in
        let diag = Build.bin bld Add (Reg diag) (Reg i) in
        Build.store bld ~base:(Reg a) ~offset:(Reg diag) ~value:(Imm 1);
        mk_loop bld ~start:(Imm 0) ~stop:(Reg nreg) (fun j ->
            let row = Build.bin bld Mul (Reg i) (Reg nreg) in
            let idx = Build.bin bld Add (Reg row) (Reg j) in
            let v = Build.bin bld Add (Reg i) (Reg j) in
            Build.store bld ~base:(Reg b) ~offset:(Reg idx) ~value:(Reg v)));
    (* c = a * b; with a = I this copies b. *)
    mk_loop bld ~start:(Imm 0) ~stop:(Reg nreg) (fun i ->
        mk_loop bld ~start:(Imm 0) ~stop:(Reg nreg) (fun j ->
            let acc = Build.mov bld (Imm 0) in
            mk_loop bld ~start:(Imm 0) ~stop:(Reg nreg) (fun kk ->
                let arow = Build.bin bld Mul (Reg i) (Reg nreg) in
                let aidx = Build.bin bld Add (Reg arow) (Reg kk) in
                let av = Build.load bld ~base:(Reg a) ~offset:(Reg aidx) in
                let brow = Build.bin bld Mul (Reg kk) (Reg nreg) in
                let bidx = Build.bin bld Add (Reg brow) (Reg j) in
                let bv = Build.load bld ~base:(Reg b) ~offset:(Reg bidx) in
                let prod = Build.fbin bld Mul (Reg av) (Reg bv) in
                Build.emit bld
                  (Fbin { dst = acc; op = Add; a = Reg acc; b = Reg prod }));
            let crow = Build.bin bld Mul (Reg i) (Reg nreg) in
            let cidx = Build.bin bld Add (Reg crow) (Reg j) in
            Build.store bld ~base:(Reg c) ~offset:(Reg cidx) ~value:(Reg acc)));
    (* Checksum c[n-1][n-1] = b[n-1][n-1] = 2(n-1). *)
    let lastrow = Build.bin bld Mul (Reg nreg) (Reg nreg) in
    let last = Build.bin bld Sub (Reg lastrow) (Imm 1) in
    let v = Build.load bld ~base:(Reg c) ~offset:(Reg last) in
    Build.terminate bld (Ret (Some (Reg v)));
    single_func (Build.finish bld)
  in
  {
    name = "mat-mul";
    suite = "nas";
    build;
    entry = "matmul";
    args = [ n ];
    expected = Some (2 * (n - 1));
    description = "dense triple loop; deep nest, hoistable guards";
  }

let stencil_1d n =
  let build () =
    let bld = Build.start ~name:"stencil" ~nparams:1 in
    let nreg = match Build.params bld with [ p ] -> p | _ -> assert false in
    let _entry = Build.new_block bld in
    let src = Build.alloc bld ~size:(Reg nreg) in
    let dst = Build.alloc bld ~size:(Reg nreg) in
    mk_loop bld ~start:(Imm 0) ~stop:(Reg nreg) (fun i ->
        Build.store bld ~base:(Reg src) ~offset:(Reg i) ~value:(Imm 6));
    let stop = Build.bin bld Sub (Reg nreg) (Imm 1) in
    mk_loop bld ~start:(Imm 1) ~stop:(Reg stop) (fun i ->
        let im1 = Build.bin bld Sub (Reg i) (Imm 1) in
        let ip1 = Build.bin bld Add (Reg i) (Imm 1) in
        let a = Build.load bld ~base:(Reg src) ~offset:(Reg im1) in
        let b = Build.load bld ~base:(Reg src) ~offset:(Reg i) in
        let c = Build.load bld ~base:(Reg src) ~offset:(Reg ip1) in
        let s = Build.fbin bld Add (Reg a) (Reg b) in
        let s = Build.fbin bld Add (Reg s) (Reg c) in
        let avg = Build.fbin bld Div (Reg s) (Imm 3) in
        Build.store bld ~base:(Reg dst) ~offset:(Reg i) ~value:(Reg avg));
    let mid = Build.bin bld Div (Reg nreg) (Imm 2) in
    let v = Build.load bld ~base:(Reg dst) ~offset:(Reg mid) in
    Build.terminate bld (Ret (Some (Reg v)));
    single_func (Build.finish bld)
  in
  {
    name = "stencil-1d";
    suite = "mantevo";
    build;
    entry = "stencil";
    args = [ n ];
    expected = Some 6;
    description = "3-point stencil; three hoistable guarded streams";
  }

let spmv n =
  (* A tridiagonal matrix in CSR form, times the all-ones vector: row
     sums are 3 in the interior. *)
  let build () =
    let bld = Build.start ~name:"spmv" ~nparams:1 in
    let nreg = match Build.params bld with [ p ] -> p | _ -> assert false in
    let _entry = Build.new_block bld in
    let nnz_max = Build.bin bld Mul (Reg nreg) (Imm 3) in
    let colidx = Build.alloc bld ~size:(Reg nnz_max) in
    let vals = Build.alloc bld ~size:(Reg nnz_max) in
    let rowptr_size = Build.bin bld Add (Reg nreg) (Imm 1) in
    let rowptr = Build.alloc bld ~size:(Reg rowptr_size) in
    let x = Build.alloc bld ~size:(Reg nreg) in
    let y = Build.alloc bld ~size:(Reg nreg) in
    let nnz = Build.mov bld (Imm 0) in
    mk_loop bld ~start:(Imm 0) ~stop:(Reg nreg) (fun i ->
        Build.store bld ~base:(Reg x) ~offset:(Reg i) ~value:(Imm 1);
        Build.store bld ~base:(Reg rowptr) ~offset:(Reg i) ~value:(Reg nnz);
        (* Columns i-1, i, i+1 where valid, all with value 1. *)
        let emit_entry col_op =
          Build.store bld ~base:(Reg colidx) ~offset:(Reg nnz) ~value:col_op;
          Build.store bld ~base:(Reg vals) ~offset:(Reg nnz) ~value:(Imm 1);
          Build.emit bld (Bin { dst = nnz; op = Add; a = Reg nnz; b = Imm 1 })
        in
        (* if i > 0 then entry (i-1) *)
        let has_prev = Build.bin bld Lt (Imm 0) (Reg i) in
        let prevb = Build.new_block bld in
        let afterprev = Build.new_block bld in
        Build.terminate bld
          (Br { cond = Reg has_prev; if_true = prevb; if_false = afterprev });
        Build.set_cursor bld prevb;
        let im1 = Build.bin bld Sub (Reg i) (Imm 1) in
        emit_entry (Reg im1);
        Build.terminate bld (Jmp afterprev);
        Build.set_cursor bld afterprev;
        emit_entry (Reg i);
        let ip1 = Build.bin bld Add (Reg i) (Imm 1) in
        let has_next = Build.bin bld Lt (Reg ip1) (Reg nreg) in
        let nextb = Build.new_block bld in
        let afternext = Build.new_block bld in
        Build.terminate bld
          (Br { cond = Reg has_next; if_true = nextb; if_false = afternext });
        Build.set_cursor bld nextb;
        emit_entry (Reg ip1);
        Build.terminate bld (Jmp afternext);
        Build.set_cursor bld afternext);
    Build.store bld ~base:(Reg rowptr) ~offset:(Reg nreg) ~value:(Reg nnz);
    (* y = A x. *)
    mk_loop bld ~start:(Imm 0) ~stop:(Reg nreg) (fun i ->
        let lo = Build.load bld ~base:(Reg rowptr) ~offset:(Reg i) in
        let ip1 = Build.bin bld Add (Reg i) (Imm 1) in
        let hi = Build.load bld ~base:(Reg rowptr) ~offset:(Reg ip1) in
        let acc = Build.mov bld (Imm 0) in
        mk_loop bld ~start:(Reg lo) ~stop:(Reg hi) (fun kk ->
            let col = Build.load bld ~base:(Reg colidx) ~offset:(Reg kk) in
            let v = Build.load bld ~base:(Reg vals) ~offset:(Reg kk) in
            let xv = Build.load bld ~base:(Reg x) ~offset:(Reg col) in
            let prod = Build.fbin bld Mul (Reg v) (Reg xv) in
            Build.emit bld
              (Fbin { dst = acc; op = Add; a = Reg acc; b = Reg prod }));
        Build.store bld ~base:(Reg y) ~offset:(Reg i) ~value:(Reg acc));
    let mid = Build.bin bld Div (Reg nreg) (Imm 2) in
    let v = Build.load bld ~base:(Reg y) ~offset:(Reg mid) in
    Build.terminate bld (Ret (Some (Reg v)));
    single_func (Build.finish bld)
  in
  {
    name = "spmv";
    suite = "nas";
    build;
    entry = "spmv";
    args = [ n ];
    expected = Some 3;
    description = "CSR sparse matvec; indirect x[col] access stays guarded";
  }

let pointer_chase n =
  (* Build an n-node linked list (node = [value; next]), then walk it
     summing values.  Every step reloads the base pointer: guards
     cannot be hoisted. *)
  let build () =
    let bld = Build.start ~name:"chase" ~nparams:1 in
    let nreg = match Build.params bld with [ p ] -> p | _ -> assert false in
    let _entry = Build.new_block bld in
    let head = Build.alloc bld ~size:(Imm 2) in
    Build.store bld ~base:(Reg head) ~offset:(Imm 0) ~value:(Imm 0);
    Build.store bld ~base:(Reg head) ~offset:(Imm 1) ~value:(Imm 0);
    let tail = Build.mov bld (Reg head) in
    mk_loop bld ~start:(Imm 1) ~stop:(Reg nreg) (fun i ->
        let node = Build.alloc bld ~size:(Imm 2) in
        Build.store bld ~base:(Reg node) ~offset:(Imm 0) ~value:(Reg i);
        Build.store bld ~base:(Reg node) ~offset:(Imm 1) ~value:(Imm 0);
        Build.store bld ~base:(Reg tail) ~offset:(Imm 1) ~value:(Reg node);
        Build.emit bld (Mov { dst = tail; src = Reg node }));
    (* Walk. *)
    let acc = Build.mov bld (Imm 0) in
    let cur = Build.mov bld (Reg head) in
    let header = Build.new_block bld in
    Build.terminate bld (Jmp header);
    Build.set_cursor bld header;
    let nonzero = Build.bin bld Ne (Reg cur) (Imm 0) in
    let bodyb = Build.new_block bld in
    let exitb = Build.new_block bld in
    Build.set_term bld header
      (Br { cond = Reg nonzero; if_true = bodyb; if_false = exitb });
    Build.set_cursor bld bodyb;
    let v = Build.load bld ~base:(Reg cur) ~offset:(Imm 0) in
    Build.emit bld (Bin { dst = acc; op = Add; a = Reg acc; b = Reg v });
    let nxt = Build.load bld ~base:(Reg cur) ~offset:(Imm 1) in
    Build.emit bld (Mov { dst = cur; src = Reg nxt });
    Build.terminate bld (Jmp header);
    Build.set_cursor bld exitb;
    Build.terminate bld (Ret (Some (Reg acc)));
    single_func (Build.finish bld)
  in
  {
    name = "pointer-chase";
    suite = "parsec";
    build;
    entry = "chase";
    args = [ n ];
    expected = Some (n * (n - 1) / 2);
    description = "linked-list walk; variant bases defeat hoisting";
  }

let alloc_churn n =
  let build () =
    let bld = Build.start ~name:"churn" ~nparams:1 in
    let nreg = match Build.params bld with [ p ] -> p | _ -> assert false in
    let _entry = Build.new_block bld in
    let acc = Build.mov bld (Imm 0) in
    mk_loop bld ~start:(Imm 0) ~stop:(Reg nreg) (fun i ->
        let node = Build.alloc bld ~size:(Imm 4) in
        Build.store bld ~base:(Reg node) ~offset:(Imm 0) ~value:(Reg i);
        let v = Build.load bld ~base:(Reg node) ~offset:(Imm 0) in
        Build.emit bld (Bin { dst = acc; op = Add; a = Reg acc; b = Reg v });
        Build.free bld ~base:(Reg node));
    Build.terminate bld (Ret (Some (Reg acc)));
    single_func (Build.finish bld)
  in
  {
    name = "alloc-churn";
    suite = "parsec";
    build;
    entry = "churn";
    args = [ n ];
    expected = Some (n * (n - 1) / 2);
    description = "allocation-heavy loop; tracking cost dominates";
  }

let histogram n =
  let build () =
    let bld = Build.start ~name:"hist" ~nparams:1 in
    let nreg = match Build.params bld with [ p ] -> p | _ -> assert false in
    let _entry = Build.new_block bld in
    let bins = Build.mov bld (Imm 16) in
    let data = Build.alloc bld ~size:(Reg nreg) in
    let hist = Build.alloc bld ~size:(Reg bins) in
    mk_loop bld ~start:(Imm 0) ~stop:(Reg nreg) (fun i ->
        let key = Build.bin bld Mul (Reg i) (Imm 7) in
        let key = Build.bin bld Rem (Reg key) (Reg bins) in
        Build.store bld ~base:(Reg data) ~offset:(Reg i) ~value:(Reg key));
    mk_loop bld ~start:(Imm 0) ~stop:(Reg nreg) (fun i ->
        let key = Build.load bld ~base:(Reg data) ~offset:(Reg i) in
        let cur = Build.load bld ~base:(Reg hist) ~offset:(Reg key) in
        let inc = Build.bin bld Add (Reg cur) (Imm 1) in
        Build.store bld ~base:(Reg hist) ~offset:(Reg key) ~value:(Reg inc));
    let total = Build.mov bld (Imm 0) in
    mk_loop bld ~start:(Imm 0) ~stop:(Reg bins) (fun i ->
        let v = Build.load bld ~base:(Reg hist) ~offset:(Reg i) in
        Build.emit bld (Bin { dst = total; op = Add; a = Reg total; b = Reg v }));
    Build.terminate bld (Ret (Some (Reg total)));
    single_func (Build.finish bld)
  in
  {
    name = "histogram";
    suite = "parsec";
    build;
    entry = "hist";
    args = [ n ];
    expected = Some n;
    description = "scatter increments; region guards hoist, offsets vary";
  }

let nbody_step n =
  let build () =
    let bld = Build.start ~name:"nbody" ~nparams:1 in
    let nreg = match Build.params bld with [ p ] -> p | _ -> assert false in
    let _entry = Build.new_block bld in
    let pos = Build.alloc bld ~size:(Reg nreg) in
    let force = Build.alloc bld ~size:(Reg nreg) in
    mk_loop bld ~start:(Imm 0) ~stop:(Reg nreg) (fun i ->
        Build.store bld ~base:(Reg pos) ~offset:(Reg i) ~value:(Reg i));
    mk_loop bld ~start:(Imm 0) ~stop:(Reg nreg) (fun i ->
        let acc = Build.mov bld (Imm 0) in
        mk_loop bld ~start:(Imm 0) ~stop:(Reg nreg) (fun j ->
            let pi = Build.load bld ~base:(Reg pos) ~offset:(Reg i) in
            let pj = Build.load bld ~base:(Reg pos) ~offset:(Reg j) in
            let d = Build.fbin bld Sub (Reg pi) (Reg pj) in
            let d2 = Build.fbin bld Mul (Reg d) (Reg d) in
            let d2p1 = Build.fbin bld Add (Reg d2) (Imm 1) in
            let contrib = Build.fbin bld Div (Reg d) (Reg d2p1) in
            Build.emit bld
              (Fbin { dst = acc; op = Add; a = Reg acc; b = Reg contrib }));
        Build.store bld ~base:(Reg force) ~offset:(Reg i) ~value:(Reg acc));
    let v = Build.load bld ~base:(Reg force) ~offset:(Imm 0) in
    Build.terminate bld (Ret (Some (Reg v)));
    single_func (Build.finish bld)
  in
  {
    name = "nbody-step";
    suite = "parsec";
    build;
    entry = "nbody";
    args = [ n ];
    expected = None;
    description = "FP-heavy O(n^2) interactions; guards amortize well";
  }

let fib_rec n =
  let fib_value n =
    let rec go a b i = if i = 0 then a else go b (a + b) (i - 1) in
    go 0 1 n
  in
  let build () =
    let bld = Build.start ~name:"fib" ~nparams:1 in
    let nreg = match Build.params bld with [ p ] -> p | _ -> assert false in
    let _entry = Build.new_block bld in
    let base = Build.bin bld Lt (Reg nreg) (Imm 2) in
    let baseb = Build.new_block bld in
    let recb = Build.new_block bld in
    Build.set_term bld 0 (Br { cond = Reg base; if_true = baseb; if_false = recb });
    Build.set_cursor bld baseb;
    Build.terminate bld (Ret (Some (Reg nreg)));
    Build.set_cursor bld recb;
    let nm1 = Build.bin bld Sub (Reg nreg) (Imm 1) in
    let nm2 = Build.bin bld Sub (Reg nreg) (Imm 2) in
    let a = Option.get (Build.call bld ~dst:true "fib" [ Reg nm1 ]) in
    let b = Option.get (Build.call bld ~dst:true "fib" [ Reg nm2 ]) in
    let s = Build.bin bld Add (Reg a) (Reg b) in
    Build.terminate bld (Ret (Some (Reg s)));
    single_func (Build.finish bld)
  in
  {
    name = "fib-rec";
    suite = "micro";
    build;
    entry = "fib";
    args = [ n ];
    expected = Some (fib_value n);
    description = "recursive fib; call-dense control flow";
  }

let branchy n =
  let build () =
    let bld = Build.start ~name:"branchy" ~nparams:1 in
    let nreg = match Build.params bld with [ p ] -> p | _ -> assert false in
    let _entry = Build.new_block bld in
    let acc = Build.mov bld (Imm 0) in
    mk_loop bld ~start:(Imm 0) ~stop:(Reg nreg) (fun i ->
        let sel = Build.bin bld Rem (Reg i) (Imm 8) in
        let is_long = Build.bin bld Eq (Reg sel) (Imm 0) in
        let longb = Build.new_block bld in
        let shortb = Build.new_block bld in
        let joinb = Build.new_block bld in
        Build.terminate bld
          (Br { cond = Reg is_long; if_true = longb; if_false = shortb });
        Build.set_cursor bld longb;
        (* Long path: a chunk of straight-line FP work. *)
        let tmp = Build.mov bld (Reg i) in
        for _ = 1 to 40 do
          Build.emit bld (Fbin { dst = tmp; op = Add; a = Reg tmp; b = Imm 3 })
        done;
        Build.emit bld (Bin { dst = acc; op = Add; a = Reg acc; b = Reg tmp });
        Build.terminate bld (Jmp joinb);
        Build.set_cursor bld shortb;
        Build.emit bld (Bin { dst = acc; op = Add; a = Reg acc; b = Imm 1 });
        Build.terminate bld (Jmp joinb);
        Build.set_cursor bld joinb);
    Build.terminate bld (Ret (Some (Reg acc)));
    single_func (Build.finish bld)
  in
  {
    name = "branchy";
    suite = "micro";
    build;
    entry = "branchy";
    args = [ n ];
    expected = None;
    description = "unbalanced paths; adversarial for callback placement";
  }

let mg_smooth n =
  (* Multigrid-flavored: smooth at three resolutions (NAS MG). *)
  let build () =
    let bld = Build.start ~name:"mg" ~nparams:1 in
    let nreg = match Build.params bld with [ p ] -> p | _ -> assert false in
    let _entry = Build.new_block bld in
    let smooth_level size_op =
      let a = Build.alloc bld ~size:size_op in
      mk_loop bld ~start:(Imm 0) ~stop:size_op (fun i ->
          Build.store bld ~base:(Reg a) ~offset:(Reg i) ~value:(Imm 9));
      let stop = Build.bin bld Sub size_op (Imm 1) in
      mk_loop bld ~start:(Imm 1) ~stop:(Reg stop) (fun i ->
          let im1 = Build.bin bld Sub (Reg i) (Imm 1) in
          let ip1 = Build.bin bld Add (Reg i) (Imm 1) in
          let l = Build.load bld ~base:(Reg a) ~offset:(Reg im1) in
          let c = Build.load bld ~base:(Reg a) ~offset:(Reg i) in
          let r = Build.load bld ~base:(Reg a) ~offset:(Reg ip1) in
          let s = Build.fbin bld Add (Reg l) (Reg c) in
          let s = Build.fbin bld Add (Reg s) (Reg r) in
          let v = Build.fbin bld Div (Reg s) (Imm 3) in
          Build.store bld ~base:(Reg a) ~offset:(Reg i) ~value:(Reg v));
      a
    in
    let fine = smooth_level (Reg nreg) in
    let half = Build.bin bld Div (Reg nreg) (Imm 2) in
    let _mid = smooth_level (Reg half) in
    let quarter = Build.bin bld Div (Reg nreg) (Imm 4) in
    let _coarse = smooth_level (Reg quarter) in
    let probe = Build.bin bld Div (Reg nreg) (Imm 2) in
    let v = Build.load bld ~base:(Reg fine) ~offset:(Reg probe) in
    Build.terminate bld (Ret (Some (Reg v)));
    single_func (Build.finish bld)
  in
  {
    name = "mg-smooth";
    suite = "nas";
    build;
    entry = "mg";
    args = [ n ];
    expected = Some 9;
    description = "three-level smoother; hoistable guards at each level";
  }

let find_min n =
  (* Branch-per-element selection scan: data-dependent control flow
     between guarded loads (PARSEC streamcluster flavor). *)
  let build () =
    let bld = Build.start ~name:"findmin" ~nparams:1 in
    let nreg = match Build.params bld with [ p ] -> p | _ -> assert false in
    let _entry = Build.new_block bld in
    let a = Build.alloc bld ~size:(Reg nreg) in
    mk_loop bld ~start:(Imm 0) ~stop:(Reg nreg) (fun i ->
        (* a[i] = (i * 37) mod n + 1; minimum is 1 *)
        let v = Build.bin bld Mul (Reg i) (Imm 37) in
        let v = Build.bin bld Rem (Reg v) (Reg nreg) in
        let v = Build.bin bld Add (Reg v) (Imm 1) in
        Build.store bld ~base:(Reg a) ~offset:(Reg i) ~value:(Reg v));
    let best = Build.mov bld (Imm max_int) in
    mk_loop bld ~start:(Imm 0) ~stop:(Reg nreg) (fun i ->
        let v = Build.load bld ~base:(Reg a) ~offset:(Reg i) in
        let lt = Build.bin bld Lt (Reg v) (Reg best) in
        let takeb = Build.new_block bld in
        let joinb = Build.new_block bld in
        Build.terminate bld
          (Br { cond = Reg lt; if_true = takeb; if_false = joinb });
        Build.set_cursor bld takeb;
        Build.emit bld (Mov { dst = best; src = Reg v });
        Build.terminate bld (Jmp joinb);
        Build.set_cursor bld joinb);
    Build.terminate bld (Ret (Some (Reg best)));
    single_func (Build.finish bld)
  in
  {
    name = "find-min";
    suite = "parsec";
    build;
    entry = "findmin";
    args = [ n ];
    expected = Some 1;
    description = "data-dependent branches between guarded loads";
  }

let carat_suite () =
  [
    stream_triad 4000;
    vec_sum 6000;
    mat_mul 24;
    stencil_1d 5000;
    spmv 2500;
    pointer_chase 2500;
    alloc_churn 2000;
    histogram 5000;
    nbody_step 80;
    mg_smooth 4000;
    find_min 6000;
  ]

let timing_suite () =
  [ vec_sum 4000; mat_mul 20; fib_rec 18; branchy 2000; stencil_1d 3000 ]
