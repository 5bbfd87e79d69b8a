// The flags docs_check collects from a repository's CLI parser.
const char* const kFlags[] = {"--cb"};
