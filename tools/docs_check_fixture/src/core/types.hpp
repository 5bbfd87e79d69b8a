// The Options struct docs_check reads from a repository tree.
struct Options {
  int cb_size = 0;
};
